package core

import (
	"sync/atomic"

	"chorusvm/internal/gmi"
)

// This file implements the periodic referenced-bit harvest. Real kernels
// run exactly this loop from their pageout daemon: clear and collect the
// hardware referenced/modified bits and feed them to the replacement
// policy. The GMI keeps all of it below the interface (section 3.3.3):
// segments and contexts never see policy.

// harvestChunk bounds one HarvestReferenced call, so a huge region is
// walked in slices instead of one unbounded sweep under the lock.
const harvestChunk = 512

// PolicyTick runs one harvest tick: referenced/modified bits are collected
// from every context's MMU (batched per region) and fed to the replacement
// policy, and tiered segments hear which of their resident pages went
// unreferenced. The pageout daemon calls this whenever it finds the
// system under pressure; tests and tools may call it directly.
func (p *PVM) PolicyTick() {
	p.mu.Lock()
	defer p.unlock()
	p.policyTickLocked()
}

func (p *PVM) policyTickLocked() {
	atomic.AddUint64(&p.stats.PolicyHarvests, 1)
	// Caches whose segment manager consumes usage advice (a tiered
	// backing store): their referenced pages are collected during the
	// harvest, and the unreferenced remainder is reported idle below —
	// the downward half of the policy feedback loop.
	var advisable map[*cache]gmi.UsageAdviser
	var referenced map[*page]struct{}
	for ctx := range p.contexts {
		for _, r := range ctx.regions {
			if ua, ok := r.cache.seg.(gmi.UsageAdviser); ok {
				if advisable == nil {
					advisable = make(map[*cache]gmi.UsageAdviser)
					referenced = make(map[*page]struct{})
				}
				advisable[r.cache] = ua
			}
			npages := int(r.size / p.pageSize)
			for o := 0; o < npages; o += harvestChunk {
				n := min(harvestChunk, npages-o)
				va := r.addr + gmi.VA(int64(o)*p.pageSize)
				base := r.coff + int64(o)*p.pageSize
				ctx.spaceMu.Lock()
				ctx.space.HarvestReferenced(va, n, func(i int, dirty bool) {
					// Feed the policy for pages resident in the region's
					// own cache. A page shared from an ancestor cache (a
					// deferred copy not yet broken) is not fed back — the
					// VA-to-ancestor-page mapping is not kept. An
					// acceptable approximation: shared pages are exactly
					// the ones a write would re-materialize anyway.
					if pg := p.ownPage(r.cache, base+int64(i)*p.pageSize); pg != nil && pg.pnode.Linked() {
						p.pol.OnHarvest(&pg.pnode, true, dirty)
						if referenced != nil {
							referenced[pg] = struct{}{}
						}
					}
				})
				ctx.spaceMu.Unlock()
			}
		}
	}
	// Report pages that stayed resident but went unreferenced this tick
	// to their segment manager, which can sink them a storage tier.
	// Pinned and in-flight pages are skipped; NoteIdle only enqueues
	// (the gmi.UsageAdviser contract), so calling under p.mu is safe.
	for c, ua := range advisable {
		for pg := c.pageHead; pg != nil; pg = pg.nextInCache {
			if pg.busy || pg.pin > 0 {
				continue
			}
			if _, ok := referenced[pg]; ok {
				continue
			}
			ua.NoteIdle(pg.off, p.pageSize)
		}
	}
}
