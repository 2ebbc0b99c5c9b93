package policy

import (
	"fmt"
	"sync/atomic"
)

// MaxShards bounds the shard count; it matches the PVM's global-map shard
// count, since the policy stripes the way the map does and finer striping
// than the map's could never be observed.
const MaxShards = 64

// Sharded stripes a replacement policy across N independent inner
// Replacer instances, so the per-policy leaf mutex — the next contention
// point after the map was sharded — splits the same way the global map
// did. Every node carries a shard-routing hint (Node.SetHome: the PVM
// stores its global-map shard index), and OnInsert/OnTouch/OnRemove/
// OnHarvest/Requeue/Unselect route to home&mask: the fault fast path
// therefore contends only on the policy shard corresponding to the map
// shard the fault already owns.
//
// SelectVictims distributes the demand: a proportional pass sweeps the
// shards round-robin from a rotating cursor, asking each populated shard
// for victims in proportion to its population (at least one), and a
// bounded work-stealing pass — one extra lap — lets the remaining shards
// cover for any shard that ran dry (empty, or all candidates unusable).
// Len and Stats aggregate the shards' lock-free atomic counters.
//
// At shards == 1 every method degenerates to a direct call on the single
// inner instance, so victim order — and therefore eviction behaviour — is
// bit-for-bit that of the bare policy; the determinism tests pin this.
//
// Concurrency: the inner ops carry the bare policies' contract (each
// shard synchronizes internally). The shards slice itself is only
// mutated by SetShard, whose caller must exclude every concurrent use
// (the PVM swaps inner instances under its exclusive structural lock).
type Sharded struct {
	shards []Replacer
	mask   uint32
	// cursor rotates the starting shard of each victim sweep so no shard
	// is structurally first in eviction order.
	cursor atomic.Uint32
}

var _ Replacer = (*Sharded)(nil)

// ValidShards reports whether n is a legal shard count: a power of two in
// [1, MaxShards].
func ValidShards(n int) bool {
	return n >= 1 && n <= MaxShards && n&(n-1) == 0
}

// NewSharded constructs shards independent instances of the named policy
// behind one Replacer.
func NewSharded(name string, shards int) (*Sharded, error) {
	if !ValidShards(shards) {
		return nil, fmt.Errorf("policy: shard count %d invalid (want a power of two in [1, %d])", shards, MaxShards)
	}
	s := &Sharded{shards: make([]Replacer, shards), mask: uint32(shards - 1)}
	for i := range s.shards {
		r, err := New(name)
		if err != nil {
			return nil, err
		}
		s.shards[i] = r
	}
	return s, nil
}

// Name implements Replacer: the inner policy's flag-level name. During a
// live per-shard migration (SetShard) shard 0 swaps first, so the name
// flips to the incoming policy at the start of the migration.
func (s *Sharded) Name() string { return s.shards[0].Name() }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's inner Replacer, for per-shard migration and
// tests.
func (s *Sharded) Shard(i int) Replacer { return s.shards[i] }

// SetShard swaps shard i's inner Replacer. The caller must exclude every
// concurrent use of the Sharded (the PVM holds its exclusive structural
// lock); nodes homed on shard i must have been drained from the old
// instance and inserted into r first.
func (s *Sharded) SetShard(i int, r Replacer) { s.shards[i] = r }

// shardFor routes a node by its home hint.
func (s *Sharded) shardFor(n *Node) Replacer { return s.shards[n.home&s.mask] }

// OnInsert implements Replacer.
func (s *Sharded) OnInsert(n *Node) { s.shardFor(n).OnInsert(n) }

// OnRemove implements Replacer.
func (s *Sharded) OnRemove(n *Node) { s.shardFor(n).OnRemove(n) }

// OnTouch implements Replacer.
func (s *Sharded) OnTouch(n *Node) { s.shardFor(n).OnTouch(n) }

// OnHarvest implements Replacer: the tick fans out per shard by routing
// each harvested node to its home instance.
func (s *Sharded) OnHarvest(n *Node, referenced, dirty bool) {
	s.shardFor(n).OnHarvest(n, referenced, dirty)
}

// Requeue implements Replacer.
func (s *Sharded) Requeue(n *Node) { s.shardFor(n).Requeue(n) }

// Unselect implements Replacer.
func (s *Sharded) Unselect(n *Node) { s.shardFor(n).Unselect(n) }

// Drain implements Replacer: shard by shard.
func (s *Sharded) Drain(dst []*Node) []*Node {
	for _, r := range s.shards {
		dst = r.Drain(dst)
	}
	return dst
}

// SelectVictims implements Replacer; see the type comment for the
// proportional round-robin + bounded work-stealing schedule.
func (s *Sharded) SelectVictims(dst []*Node, max int, usable func(*Node) bool) []*Node {
	if len(s.shards) == 1 {
		return s.shards[0].SelectVictims(dst, max, usable)
	}
	need := max - len(dst)
	if need <= 0 {
		return dst
	}
	var lens [MaxShards]int
	total := 0
	for i := range s.shards {
		lens[i] = s.shards[i].Len()
		total += lens[i]
	}
	if total == 0 {
		return dst
	}
	start := s.cursor.Add(1) - 1
	// Proportional pass: each populated shard contributes victims in
	// proportion to its share of the linked population, never less than
	// one, so a small shard cannot be starved of turnover and a large one
	// carries its share of the demand.
	for i := 0; i < len(s.shards) && len(dst) < max; i++ {
		j := (start + uint32(i)) & s.mask
		if lens[j] == 0 {
			continue
		}
		quota := need * lens[j] / total
		if quota == 0 {
			quota = 1
		}
		target := len(dst) + quota
		if target > max {
			target = max
		}
		dst = s.shards[j].SelectVictims(dst, target, usable)
	}
	if len(dst) >= max {
		return dst
	}
	// Work-stealing pass, bounded at one extra lap: shards that still
	// have usable candidates cover for the ones that ran dry. Nodes the
	// proportional pass already selected must not be returned twice —
	// clock and 2q dedupe via their selection mark, but LRU deliberately
	// leaves no mark (its single-instance scan semantics are pinned), so
	// the candidate filter excludes everything already in dst.
	taken := func(n *Node) bool {
		for _, d := range dst {
			if d == n {
				return true
			}
		}
		return false
	}
	steal := func(n *Node) bool { return !taken(n) && usable(n) }
	for i := 0; i < len(s.shards) && len(dst) < max; i++ {
		j := (start + uint32(i)) & s.mask
		dst = s.shards[j].SelectVictims(dst, max, steal)
	}
	return dst
}

// Len implements Replacer: a lock-free sum of the per-shard atomic
// counts.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].Len()
	}
	return n
}

// Stats implements Replacer: a lock-free field-wise sum of the per-shard
// atomic counters.
func (s *Sharded) Stats() Stats {
	var st Stats
	for i := range s.shards {
		st = st.Add(s.shards[i].Stats())
	}
	return st
}
