// Package policy implements pluggable page-replacement policies for the
// PVM. The paper's generic memory-management interface deliberately keeps
// replacement policy below the GMI (section 3.3.3) and out of the
// machine-independent fault path; this package makes that separation
// literal: the PVM threads every resident page through a Replacer and asks
// it for victims, and the Replacer never sees PVM structures — only opaque
// Nodes.
//
// Three policies are provided:
//
//   - LRU: the exact global least-recently-used queue the PVM's pageout
//     path used before this package existed (extracted move-for-move, so
//     eviction order is unchanged — the core regression test proves it);
//   - clock: second-chance over a circular ring with a lock-free
//     reference bit, so the fault path's touch is one atomic store
//     instead of a mutex + list splice;
//   - 2q: a two-queue scan-resistant variant (FIFO admission queue in
//     front of a protected main queue, promotion on evidence of reuse),
//     after Johnson & Shasha's 2Q.
//
// Concurrency contract: OnTouch may be called concurrently with every
// method including itself (the PVM's fast fault path holds only the
// structural read-lock); implementations make it safe with their internal
// mutex or an atomic reference bit. All other methods may also be called
// concurrently and take the internal mutex. The usable callback passed to
// SelectVictims runs with that mutex held and must not call back into the
// Replacer.
package policy

import (
	"fmt"
	"sync/atomic"
)

// Node is the per-page handle a Replacer threads through its queues. The
// PVM embeds one Node in every page descriptor and never touches its
// fields; Owner is set once at page creation and points back at the
// descriptor so SelectVictims results can be mapped to pages.
type Node struct {
	// Owner is the opaque back-pointer to the descriptor embedding this
	// node. Set once, before the node is first inserted; never changed.
	Owner any

	prev, next *Node
	// q identifies the queue threading the node: 0 = none, policy-specific
	// otherwise. Written only under the owning Replacer's mutex.
	q int8
	// ref is the software reference bit (clock, 2q): set lock-free by
	// OnTouch and by harvested hardware referenced bits, cleared by the
	// victim scan giving the page its second chance.
	ref atomic.Bool
	// dirtyHint remembers the last harvested hardware modified bit; a
	// hint only (the PVM's page-level dirty flag is the write-back source
	// of truth). Written under the Replacer's mutex.
	dirtyHint bool
	// sel marks a node already selected by the in-progress SelectVictims
	// sweep, so a wrapping scan (clock) cannot return it twice. Cleared
	// when the selection is consumed (OnRemove or Requeue). Written under
	// the Replacer's mutex.
	sel bool
}

// Linked reports whether the node is currently threaded in a policy
// queue. The caller must exclude concurrent OnInsert/OnRemove (the PVM
// checks invariants under its exclusive lock).
func (n *Node) Linked() bool { return n.q != 0 }

// Reset returns the node to its never-inserted state, keeping Owner. Used
// when migrating pages between Replacers (SetPolicy): the old policy's
// threading is abandoned wholesale, so nodes must be cleaned individually
// before reinsertion.
func (n *Node) Reset() {
	n.prev, n.next, n.q, n.dirtyHint, n.sel = nil, nil, 0, false, false
	n.ref.Store(false)
}

// Stats are cumulative per-Replacer counters (monotonic, read via Stats).
type Stats struct {
	// Selected counts victims returned by SelectVictims. A victim whose
	// eviction fails and is requeued counts again when re-selected.
	Selected uint64
	// SecondChances counts nodes spared by a set reference bit during a
	// victim scan (clock and the 2q main queue).
	SecondChances uint64
	// Promotions counts 2q admission-queue pages promoted to the main
	// queue on evidence of reuse; zero for other policies.
	Promotions uint64
}

// Add returns the field-wise sum s + o, for accumulating counters across
// policy replacements.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Selected:      s.Selected + o.Selected,
		SecondChances: s.SecondChances + o.SecondChances,
		Promotions:    s.Promotions + o.Promotions,
	}
}

// counters is the internal, atomically-readable form of Stats plus the
// linked-node count. Writers update under the owning Replacer's mutex (so
// related counters stay coherent with the queues), but every field is
// loaded atomically: Len and Stats never take the mutex, so the stats
// path and the invariant checker never convoy the fault path.
type counters struct {
	n             atomic.Int64
	selected      atomic.Uint64
	secondChances atomic.Uint64
	promotions    atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Selected:      c.selected.Load(),
		SecondChances: c.secondChances.Load(),
		Promotions:    c.promotions.Load(),
	}
}

// Replacer is a page-replacement policy. The PVM calls OnInsert when a
// page becomes resident (or unpinned), OnRemove when it leaves residency
// (evicted, pinned, or torn down), OnTouch on every fault-time reference,
// OnHarvest with hardware referenced/modified bits collected by the
// periodic MMU harvest, and SelectVictims to choose eviction candidates.
type Replacer interface {
	// Name returns the flag-level policy name ("lru", "clock", "2q").
	Name() string
	// OnInsert threads a resident page. The node must not be linked.
	OnInsert(n *Node)
	// OnRemove unthreads a page; a no-op if the node is not linked.
	OnRemove(n *Node)
	// OnTouch records a fault-time reference. Safe to call concurrently
	// with every method; see the package comment.
	OnTouch(n *Node)
	// OnHarvest records hardware feedback: referenced reports whether the
	// page's referenced bit was set since the last harvest, dirty whether
	// its modified bit was.
	OnHarvest(n *Node, referenced, dirty bool)
	// SelectVictims appends up to max victims in eviction order to dst
	// and returns it. usable vets each candidate (the PVM skips pinned,
	// busy and unpushable pages); unusable nodes keep their place.
	// Policies with reference bits give spared pages their second chance
	// during this scan, whether or not a victim is found.
	SelectVictims(dst []*Node, max int, usable func(*Node) bool) []*Node
	// Requeue sends a victim whose eviction failed to the back of the
	// eviction order, so other candidates get their turn before it is
	// retried.
	Requeue(n *Node)
	// Unselect abandons a selection without penalizing the candidate: the
	// node keeps its queue position and reference bit and becomes
	// selectable again. Used when reclaim progresses by other means (a
	// segmentCreate upcall) before acting on the victim.
	Unselect(n *Node)
	// Drain appends every linked node to dst and returns it, for moving
	// the population into another Replacer: first what a full sweep
	// SelectVictims(dst, len(dst)+Len(), all) appends, coldest first,
	// then the nodes an earlier selection still holds (victims whose
	// eviction is in flight), which a sweep skips. The Replacer is
	// abandoned afterwards; the caller Resets each node before
	// reinserting it.
	Drain(dst []*Node) []*Node
	// Len returns the number of linked nodes.
	Len() int
	// Stats returns the cumulative counters.
	Stats() Stats
}

// anyNode is the usable filter of a draining sweep.
func anyNode(*Node) bool { return true }

// Names lists the valid policy names, in flag-help order.
func Names() []string { return []string{"lru", "clock", "2q"} }

// Valid reports whether name names a policy.
func Valid(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// New constructs the named Replacer.
func New(name string) (Replacer, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "clock":
		return NewClock(), nil
	case "2q":
		return NewTwoQ(), nil
	}
	return nil, fmt.Errorf("policy: unknown replacement policy %q (valid: lru, clock, 2q)", name)
}
