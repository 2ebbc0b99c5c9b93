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
// policy. The pageout daemon calls this whenever it finds the
// system under pressure; tests and tools may call it directly.
func (p *PVM) PolicyTick() {
	p.mu.Lock()
	defer p.unlock()
	p.policyTickLocked()
}

func (p *PVM) policyTickLocked() {
	atomic.AddUint64(&p.stats.PolicyHarvests, 1)
	for ctx := range p.contexts {
		for _, r := range ctx.regions {
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
					}
				})
				ctx.spaceMu.Unlock()
			}
		}
	}
}
