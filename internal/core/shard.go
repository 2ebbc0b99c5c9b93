package core

import (
	"sync"

	"chorusvm/internal/obs"
)

// This file implements the lock-striped global map. The map that names
// every cached page (section 4.1.1) used to live behind the single PVM
// lock; it is now split into gmapShards shards so that concurrent faults
// on independent pages serialize only per shard.
//
// Locking invariant for the global map: every single-key access holds
// EITHER p.mu exclusively OR the key's shard mutex. The helpers below do
// not lock internally — the caller supplies whichever of the two it
// already holds. This works because exclusive p.mu excludes every
// shard-lock holder (shard locks are only ever taken under p.mu.RLock),
// so the two modes can never observe each other mid-update. Whole-map
// iteration (gmapRange, gmapLen) requires p.mu held exclusively.

// gmapShards is the number of global-map shards; must be a power of two.
const gmapShards = 64

// gmapShard is one stripe of the global map.
type gmapShard struct {
	mu sync.Mutex
	m  map[pageKey]mapEntry
}

// shardOf returns the shard responsible for key. Caches carry a small
// integer id so the hash does not depend on pointer values (which would
// make shard distribution, and thus benchmarks, run-to-run unstable).
// The offset is hashed at supercluster granularity (faultAroundMax
// pages), so a fault-around cluster's keys all land in one shard and the
// neighbour scan is genuinely one lock trip; independent clusters still
// spread across shards.
func (p *PVM) shardOf(key pageKey) *gmapShard {
	h := (key.c.id ^ uint64(key.off)>>p.clusterShift) * 0x9E3779B97F4A7C15
	return &p.shards[(h>>48)&(gmapShards-1)]
}

// gmapGet returns the entry at key, or nil. Caller holds p.mu exclusively
// or the key's shard mutex.
func (p *PVM) gmapGet(key pageKey) mapEntry {
	return p.shardOf(key).m[key]
}

// gmapSet stores the entry at key. Caller holds p.mu exclusively or the
// key's shard mutex.
func (p *PVM) gmapSet(key pageKey, e mapEntry) {
	p.shardOf(key).m[key] = e
}

// gmapDelete removes the entry at key. Caller holds p.mu exclusively or
// the key's shard mutex.
func (p *PVM) gmapDelete(key pageKey) {
	delete(p.shardOf(key).m, key)
}

// gmapRange calls f for every entry until f returns false; p.mu held
// exclusively.
func (p *PVM) gmapRange(f func(pageKey, mapEntry) bool) {
	for i := range p.shards {
		for k, e := range p.shards[i].m {
			if !f(k, e) {
				return
			}
		}
	}
}

// gmapLen returns the number of entries; p.mu held exclusively.
func (p *PVM) gmapLen() int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].m)
	}
	return n
}

// tryReserveFrames reserves k frames for the fast fault path without
// evicting: it succeeds only when free frames already exceed every
// outstanding reservation, guaranteeing the subsequent Alloc calls find
// free frames and never enter reclaim. Callable under p.mu.RLock.
func (p *PVM) tryReserveFrames(k int) (release func(), ok bool) {
	p.reserveMu.Lock()
	defer p.reserveMu.Unlock()
	if p.mem.FreeFrames() < p.reserved+k {
		return nil, false
	}
	p.reserved += k
	return func() {
		p.reserveMu.Lock()
		p.reserved -= k
		p.reserveMu.Unlock()
	}, true
}

// policyInsert and policyRemove thread pages through the replacement
// order (internal/policy) as they become and stop being evictable, and
// noteReference records a fault-time reference to a resident page. The
// order synchronizes internally (a leaf mutex, or a lock-free reference
// bit for a reference), so the fast fault path (p.mu.RLock holders) and
// the structural path both call these directly. Each call is bracketed
// by a KindPolicyWait span: under contention the duration is dominated
// by the policy mutex wait, which the probe makes visible. Disabled
// tracing costs one branch and zero allocations (Clock returns 0, Span
// no-ops).
func (p *PVM) policyInsert(pg *page) {
	if pg.pnode.Owner == nil {
		// First insertion: the page is not yet visible to any victim
		// scan, so the one-time back-pointer write cannot race.
		pg.pnode.Owner = pg
	}
	start := p.obs.Clock()
	p.pol.OnInsert(&pg.pnode)
	p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, int64(pg.cache.id), pg.off, start)
}

func (p *PVM) policyRemove(pg *page) {
	start := p.obs.Clock()
	p.pol.OnRemove(&pg.pnode)
	p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, int64(pg.cache.id), pg.off, start)
}

func (p *PVM) noteReference(pg *page) {
	start := p.obs.Clock()
	p.pol.OnTouch(&pg.pnode)
	p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, int64(pg.cache.id), pg.off, start)
}
