package core

import (
	"sync/atomic"

	"chorusvm/internal/gmi"
)

// This file implements the periodic referenced-bit harvest and the
// per-context thrashing control built on it. Real kernels run exactly this
// loop from their pageout daemon: clear and collect the hardware
// referenced/modified bits (with the TLB shootdown that makes clearing
// meaningful), feed them to the replacement policy, and size each address
// space's working set from the counts. The GMI keeps all of it below the
// interface (section 3.3.3): segments and contexts never see policy.

const (
	// harvestChunk bounds one HarvestReferenced call, so a huge region is
	// walked in slices instead of one unbounded sweep under the lock.
	harvestChunk = 512
	// paroleTicks bounds a suspension: after this many harvest ticks the
	// context resumes regardless of pressure, guaranteeing liveness even
	// if the pressure never clears.
	paroleTicks = 8
)

// PolicyTick runs one harvest tick: referenced/modified bits are collected
// from every context's MMU (batched per region, with TLB range shootdown),
// fed to the replacement policy and the per-context working-set
// estimators, and — when admission control is enabled — the thrashing
// check runs against the low watermark. The pageout daemon calls this
// whenever it finds the system under pressure; tests and tools may call it
// directly.
func (p *PVM) PolicyTick(low int) {
	p.mu.Lock()
	defer p.unlock()
	p.policyTickLocked(low)
}

func (p *PVM) policyTickLocked(low int) {
	atomic.AddUint64(&p.stats.PolicyHarvests, 1)
	// Caches whose segment manager consumes usage advice (a tiered
	// backing store): their referenced pages are collected during the
	// harvest, and the unreferenced remainder is reported idle below —
	// the downward half of the policy feedback loop.
	var advisable map[*cache]gmi.UsageAdviser
	var referenced map[*page]struct{}
	for ctx := range p.contexts {
		refs := 0
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
					refs++
					// Feed the policy for pages resident in the region's
					// own cache. A page shared from an ancestor cache (a
					// deferred copy not yet broken) still counts toward
					// the working-set estimate but is not fed back — the
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
		// A fault during the interval is a reference the bit snapshot
		// missed: the page was demanded but evicted (or never resident)
		// before the harvest. Blending the fault count in — the classic
		// page-fault-frequency signal — makes the estimate an upper
		// bound on the interval's working set; pages faulted in and
		// still referenced at harvest count twice, which for admission
		// control errs on the safe side (overestimating demand parks a
		// borderline context, and parole bounds the harm; underestimating
		// lets the system thrash).
		faulted := int(ctx.tickFaults.Swap(0))
		ctx.ws.Observe(refs + faulted)
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
	if p.admission {
		p.admissionLocked(low)
	}
}

// admissionLocked is the thrashing check (p.mu held exclusively). Resume
// first: any parked context comes back the moment pressure clears, or when
// its parole expires. Then, still under pressure, if at least two contexts
// are active and their aggregate working-set demand exceeds physical
// memory, the context with the largest estimate is parked — Denning's
// working-set rule that it is better to run n-1 tasks well than n tasks
// not at all. One suspension per tick keeps the control loop gentle.
func (p *PVM) admissionLocked(low int) {
	free := p.mem.FreeFrames()
	for ctx := range p.contexts {
		ctx.admMu.Lock()
		parked := ctx.resumeCh != nil
		if parked {
			ctx.parole++
		}
		expired := parked && ctx.parole >= paroleTicks
		ctx.admMu.Unlock()
		if parked && (free >= low || expired) {
			p.resumeContext(ctx)
		}
	}
	if free >= low {
		return
	}
	total, active := 0, 0
	var worst *context
	worstEst := 0
	for ctx := range p.contexts {
		est := ctx.ws.Estimate()
		if est == 0 {
			continue
		}
		total += est
		ctx.admMu.Lock()
		parked := ctx.resumeCh != nil
		ctx.admMu.Unlock()
		if parked {
			continue
		}
		active++
		if est > worstEst {
			worst, worstEst = ctx, est
		}
	}
	if active < 2 || total <= p.mem.TotalFrames() {
		return
	}
	// Only a context whose own working set exceeds its fair share of
	// physical memory is a thrashing candidate; parking a context that
	// fits would just idle memory.
	if worstEst <= p.mem.TotalFrames()/active {
		return
	}
	p.suspendContext(worst)
}

// suspendContext parks ctx's fault service; p.mu held exclusively.
func (p *PVM) suspendContext(ctx *context) {
	ctx.admMu.Lock()
	if ctx.resumeCh == nil {
		ctx.resumeCh = make(chan struct{})
		ctx.parole = 0
		p.suspended.Add(1)
		atomic.AddUint64(&p.stats.WSSuspensions, 1)
	}
	ctx.admMu.Unlock()
}

// resumeContext unparks ctx, waking every faulter blocked on it.
// Idempotent; called from the admission check, context destruction and
// daemon shutdown (a stopped daemon must leave no one parked).
func (p *PVM) resumeContext(ctx *context) {
	ctx.admMu.Lock()
	if ctx.resumeCh != nil {
		close(ctx.resumeCh)
		ctx.resumeCh = nil
		p.suspended.Add(-1)
		atomic.AddUint64(&p.stats.WSResumes, 1)
	}
	ctx.admMu.Unlock()
}

// resumeAll unparks every context; called when the pageout daemon stops,
// since without its ticks nothing else would end a suspension.
func (p *PVM) resumeAll() {
	p.mu.Lock()
	defer p.unlock()
	for ctx := range p.contexts {
		p.resumeContext(ctx)
	}
}

// parkIfSuspended blocks the calling faulter while its context is parked.
// Called with no PVM lock held; the loop re-checks because a resume can
// race a fresh suspension.
func (ctx *context) parkIfSuspended() {
	for {
		ctx.admMu.Lock()
		ch := ctx.resumeCh
		ctx.admMu.Unlock()
		if ch == nil {
			return
		}
		<-ch
	}
}
