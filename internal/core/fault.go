package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
)

// This file is the PVM's page-fault engine: the section 4.1.2 lookup
// path, the history-object write-violation rules of sections 4.2.2-4.2.3,
// and the per-virtual-page stub resolution of section 4.3.
//
// # Locking protocol
//
// Faults resolve in two tiers.
//
// Fast path (fastFaultOnce): p.mu.RLock plus the faulting key's global-map
// shard mutex. It handles the common cases end to end — mapping a resident
// page for read, a simple write to an already-writable page, zero-filling
// a temporary, and a segment fill (submit.go: every segment is driven as
// a gmi.Pager) — so faults on different pages from different contexts
// proceed in parallel. Page-content work (bzero of a fresh frame) runs
// with no shard lock held, a fill's device work with no PVM lock at all:
// an in-transit fragment is represented by a synchronization stub in the
// global map, so concurrent access blocks on the fragment, never on a
// lock. Anything structural — deferred-copy stubs, history pushes,
// access upgrades, read-through of parent chains, frame reclaim — makes
// the fast path bail out wholesale.
//
// Slow path (slowFault/resolveFault): p.mu held exclusively, which
// excludes every RLock holder and therefore every shard-lock holder.
// Under it the original big-lock protocol applies unchanged: functions
// may release and reacquire p.mu (to wait on in-transit fragments, to
// submit fills, to issue upcalls, or to reclaim frames); they return
// with the lock held again, and callers re-validate anything they looked
// up before the call.
// The outer fault loop simply restarts resolution from the global map
// after any such step.
//
// Lock ordering (a lock may only be taken while holding locks strictly to
// its left; never the reverse):
//
//	p.mu (RLock or Lock)  →  shard mutex  →  leaf mutexes
//	                                         (ctx.spaceMu, c.listMu,
//	                                          the policy mutex,
//	                                          p.reserveMu)
//
// The replacement policy's internal mutex is a leaf after the map shard:
// the fast path's OnInsert/OnTouch take it while holding a shard mutex,
// so it is acquired last and never held across any other lock
// acquisition (the usable filter of SelectVictims takes no lock).
// Likewise, the sun3 MMU's page-table free list has its own mutex, taken
// inside Space calls under ctx.spaceMu or an exclusive p.mu: a leaf that
// takes nothing further.
//
// Additional rules:
//
//   - Never block on a channel (syncStub.done, page.busyDone) while
//     holding any of these locks: release the shard mutex AND the RLock
//     first. (A blocked RLock holder would deadlock against a queued
//     writer that the channel's closer needs to get past.)
//   - Never acquire p.mu exclusively while holding the RLock or a shard
//     mutex.
//   - Every single-key global-map access holds either p.mu exclusively or
//     that key's shard mutex (see shard.go); the gmap helpers do not lock
//     internally.
//   - Mapper upcalls (pullIn/pushOut/getWriteAccess/segmentCreate) are
//     issued with no PVM lock held.

// HandleFault resolves one page fault: va faulted in ctx with the given
// access type. It is the entry point the simulated CPU (context.Read/
// Write) invokes, standing in for the hardware trap.
//
// Observability: a FaultSpan opens here and is threaded by pointer down
// both resolution tiers; the helpers Mark stage boundaries on it as they
// wait for locks, issue upcalls and touch page content. Shared helpers
// also reachable outside a fault receive a nil span, which disables the
// marks. With no tracer configured the span is the zero value and every
// probe is a single branch (see TestHandleFaultDisabledTracerAllocs).
func (p *PVM) HandleFault(ctx *context, va gmi.VA, access gmi.Prot) error {
	return p.handleFault(ctx, va, access, false)
}

// handleFault is HandleFault with the refault flag: a retry of an access
// that already counted this logical fault (the simulated CPU re-faults
// when a racing writer invalidated its fresh translation). The resolution
// work runs in full and the simulated clock still charges the trap, but
// the fault counter and the latency histograms are not double-charged —
// one logical fault, one count, one span.
func (p *PVM) handleFault(ctx *context, va gmi.VA, access gmi.Prot, refault bool) error {
	p.clock.Charge(cost.EvFault, 1)
	var span obs.FaultSpan
	if !refault {
		atomic.AddUint64(&p.stats.Faults, 1)
		span = p.obs.FaultBegin()
	}
	// worked tracks whether resolution did anything beyond installing a
	// translation for an already-resident page: waits, fills, copies and
	// upcalls all set it. A fault that resolves with worked still false is
	// a soft fault — the page was there, only the mapping was missing.
	// A refault re-runs resolution for a fault already counted, so it
	// never recounts as soft either.
	worked := refault
	err, handled := p.fastFault(ctx, va, access, &span, &worked)
	if !handled {
		err = p.slowFault(ctx, va, access, &span, &worked)
	}
	if err == nil && !worked {
		atomic.AddUint64(&p.stats.SoftFaults, 1)
	}
	if err == gmi.ErrProtection {
		atomic.AddUint64(&p.stats.ProtFaults, 1)
	}
	span.End(int64(va), faultErrArg(err))
	return err
}

// faultErrArg encodes a fault outcome for the KindFault event's Arg2.
func faultErrArg(err error) int64 {
	switch err {
	case nil:
		return 0
	case gmi.ErrSegmentation:
		return 1
	case gmi.ErrProtection:
		return 2
	default:
		return 3
	}
}

// fastFault drives the shared-lock resolution loop; handled=false means
// the fault needs the exclusive slow path.
func (p *PVM) fastFault(ctx *context, va gmi.VA, access gmi.Prot, span *obs.FaultSpan, worked *bool) (error, bool) {
	for attempt := 0; attempt < 16; attempt++ {
		done, retry, err := p.fastFaultOnce(ctx, va, access, span, worked)
		if done {
			return err, true
		}
		if !retry {
			break
		}
	}
	return nil, false
}

// slowFault is the exclusive-lock fallback: the original single-lock
// resolution protocol.
func (p *PVM) slowFault(ctx *context, va gmi.VA, access gmi.Prot, span *obs.FaultSpan, worked *bool) error {
	p.mu.Lock()
	span.Mark(obs.StageLockWait)
	defer p.unlock()
	r := ctx.findRegion(va)
	if r == nil {
		atomic.AddUint64(&p.stats.SegvFaults, 1)
		return gmi.ErrSegmentation
	}
	if !r.prot.Allows(access) {
		return gmi.ErrProtection
	}
	pva := gmi.VA(p.pageFloor(int64(va)))
	off := r.coff + p.pageFloor(int64(va)-int64(r.addr))
	return p.resolveFault(ctx, r, pva, r.cache, off, access, span, worked)
}

// fastFaultOnce attempts one round of resolution under p.mu.RLock plus
// one shard mutex. Returns done=true when the fault resolved (or failed
// definitively), retry=true when it made progress (waited out an
// in-transit fragment, completed a pull) and is worth re-running;
// (false, false) escalates to the slow path. All locks are released on
// return.
//
// Everything read here without a shard lock — region lists, r.prot,
// cache identity fields (destroyed, zombie, seg, protCap, history,
// parents, remoteStubs) — is mutated only under p.mu held exclusively,
// so it is stable under the RLock. Page descriptor fields are guarded by
// the page's key shard mutex.
func (p *PVM) fastFaultOnce(ctx *context, va gmi.VA, access gmi.Prot, span *obs.FaultSpan, worked *bool) (done bool, retry bool, err error) {
	write := access&gmi.ProtWrite != 0
	p.mu.RLock()
	r := ctx.findRegion(va)
	if r == nil {
		p.mu.RUnlock()
		atomic.AddUint64(&p.stats.SegvFaults, 1)
		return true, false, gmi.ErrSegmentation
	}
	if !r.prot.Allows(access) {
		p.mu.RUnlock()
		return true, false, gmi.ErrProtection
	}
	c := r.cache
	if c.destroyed && !c.zombie {
		p.mu.RUnlock()
		return true, false, gmi.ErrDestroyed
	}
	pva := gmi.VA(p.pageFloor(int64(va)))
	off := r.coff + p.pageFloor(int64(va)-int64(r.addr))
	key := pageKey{c, off}
	sh := p.shardOf(key)
	sh.mu.Lock()
	span.Mark(obs.StageLockWait)
	p.clock.Charge(cost.EvGlobalMapOp, 1)
	switch e := sh.m[key].(type) {
	case *page:
		if e.busy {
			*worked = true
			ch := e.busyDone
			sh.mu.Unlock()
			p.mu.RUnlock()
			if ch != nil {
				span.Mark(obs.StageResolve)
				<-ch
				span.Mark(obs.StageLockWait)
			}
			return false, true, nil
		}
		if write {
			if c.protCap&gmi.ProtWrite == 0 {
				sh.mu.Unlock()
				p.mu.RUnlock()
				return true, false, gmi.ErrProtection
			}
			if !e.granted.Allows(gmi.ProtWrite) || e.cowProtected || e.stubs != nil {
				// Access upgrade, history push or stub transfer: the
				// slow path owns those.
				sh.mu.Unlock()
				p.mu.RUnlock()
				return false, false, nil
			}
			// Readers may hold this frame read-only through descendant
			// caches; their stale translations go before the write.
			p.invalidateMappings(e)
			p.mapPage(ctx, r, pva, e, r.prot)
			e.dirty = true
		} else {
			p.mapPage(ctx, r, pva, e, p.readProt(r, e))
		}
		p.noteReference(e)
		if p.faultAround > 1 {
			p.faultAroundMap(ctx, r, c, pva, off)
		}
		sh.mu.Unlock()
		p.mu.RUnlock()
		return true, false, nil

	case *syncStub:
		*worked = true
		ch := e.done
		sh.mu.Unlock()
		p.mu.RUnlock()
		span.Mark(obs.StageResolve)
		<-ch
		span.Mark(obs.StageLockWait)
		if e.err != nil {
			// The fill this stub guarded failed. Deliver the outcome of
			// the one round-trip to every parked context rather than have
			// each waiter wake, resubmit the same doomed pull, and fail
			// one device round-trip at a time. (err is written before the
			// stub settles; the channel close publishes it.)
			return true, false, e.err
		}
		return false, true, nil

	case *cowStub:
		// Deferred-copy resolution: slow path.
		sh.mu.Unlock()
		p.mu.RUnlock()
		return false, false, nil

	case nil:
		if c.findParent(off) != nil || c.history != nil || len(c.remoteStubs) > 0 {
			// Inherited content, or residency bookkeeping that touches
			// other keys (afterResident): slow path.
			sh.mu.Unlock()
			p.mu.RUnlock()
			return false, false, nil
		}
		if write && c.protCap&gmi.ProtWrite == 0 {
			// The slow path materializes and then denies; match it.
			sh.mu.Unlock()
			p.mu.RUnlock()
			return false, false, nil
		}
		*worked = true
		if c.seg == nil {
			return p.fastZeroFill(ctx, r, pva, c, off, key, sh, access, span)
		}
		// Park on the stub; a completion publishes the cluster, each
		// neighbour stubbed under its own shard mutex (submit.go).
		return p.fastSubmitPull(c, off, r.coff+r.size, key, sh, pagerOf(c.seg), access, span)

	default:
		sh.mu.Unlock()
		p.mu.RUnlock()
		return false, false, nil
	}
}

// fastZeroFill materializes a demand-zero page under the fast-path locks.
// Entered holding p.mu.RLock and the key's shard mutex; releases both.
// The frame reservation never evicts (tryReserveFrames), so mem.Alloc is
// guaranteed to find a free frame without entering reclaim.
func (p *PVM) fastZeroFill(ctx *context, r *region, pva gmi.VA, c *cache, off int64, key pageKey, sh *gmapShard, access gmi.Prot, span *obs.FaultSpan) (bool, bool, error) {
	release, ok := p.tryReserveFrames(1)
	if !ok {
		// Needs eviction: slow path.
		sh.mu.Unlock()
		p.mu.RUnlock()
		return false, false, nil
	}
	stub := &syncStub{done: make(chan struct{})}
	sh.m[key] = stub
	p.clock.Charge(cost.EvGlobalMapOp, 1)
	sh.mu.Unlock()

	// Obtain a zeroed private frame with no shard lock held. The RLock is
	// retained: no structural operation can run, so nothing can resolve
	// or replace the stub meanwhile, and AllocZeroed takes no PVM locks.
	span.Mark(obs.StageResolve)
	f, err := p.mem.AllocZeroed()
	if err != nil {
		sh.mu.Lock()
		if sh.m[key] == mapEntry(stub) {
			delete(sh.m, key)
		}
		p.settleStub(stub)
		sh.mu.Unlock()
		release()
		p.mu.RUnlock()
		return true, false, err
	}
	span.Mark(obs.StageContent)

	pg := &page{frame: f, off: off, granted: gmi.ProtRWX, dirty: true}
	sh.mu.Lock()
	span.Mark(obs.StageLockWait)
	delete(sh.m, key)
	p.addPage(c, pg)
	// afterResident would be a no-op: the fast path only zero-fills when
	// the cache has no history and no remote stub readers.
	p.clock.Charge(cost.EvGlobalMapOp, 1) // parity with the slow path's re-resolve
	if access&gmi.ProtWrite != 0 {
		p.mapPage(ctx, r, pva, pg, r.prot)
	} else {
		p.mapPage(ctx, r, pva, pg, p.readProt(r, pg))
	}
	p.settleStub(stub)
	sh.mu.Unlock()
	atomic.AddUint64(&p.stats.ZeroFills, 1)
	p.obs.Emit(obs.KindZeroFill, int64(c.id), off)
	release()
	p.mu.RUnlock()
	return true, false, nil
}

// settleStub closes a synchronization stub exactly once. Callers hold
// p.mu exclusively or the stub's key shard mutex; the two modes exclude
// each other, so the flag needs no further synchronization.
func (p *PVM) settleStub(s *syncStub) {
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

// resolveFault installs a translation for pva covering (c, off); p.mu
// held exclusively.
func (p *PVM) resolveFault(ctx *context, r *region, pva gmi.VA, c *cache, off int64, access gmi.Prot, span *obs.FaultSpan, worked *bool) error {
	write := access&gmi.ProtWrite != 0
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("core: fault resolution livelock")
		}
		if ctx.destroyed || r.gone {
			// A wait below released the lock and the region went away.
			return gmi.ErrDestroyed
		}
		if c.destroyed && !c.zombie {
			return gmi.ErrDestroyed
		}
		p.clock.Charge(cost.EvGlobalMapOp, 1)
		switch e := p.gmapGet(pageKey{c, off}).(type) {
		case *page:
			if e.busy {
				*worked = true
				p.waitBusy(e, span)
				continue
			}
			if write {
				if restarted, err := p.breakOwnForWrite(c, off, e, span); err != nil {
					return err
				} else if restarted {
					*worked = true
					continue
				}
				p.mapPage(ctx, r, pva, e, r.prot)
				e.dirty = true
			} else {
				p.mapPage(ctx, r, pva, e, p.readProt(r, e))
			}
			p.noteReference(e)
			if p.faultAround > 1 && c == r.cache {
				// Under exclusive p.mu the shard maps are directly
				// accessible; the cluster scan needs no shard mutex.
				p.faultAroundMap(ctx, r, c, pva, off)
			}
			return nil

		case *syncStub:
			*worked = true
			p.waitStub(e, span)
			if e.err != nil {
				// A failed fill settled the stub: report the round-trip's
				// outcome instead of resubmitting the same doomed pull.
				return e.err
			}
			continue

		case *cowStub:
			*worked = true
			if !write && !p.copyOnRef {
				// Read through the stub: share the source page
				// read-only.
				src, err := p.stubSource(e, span)
				if err != nil {
					return err
				}
				if src == nil {
					continue // stub state changed while blocked
				}
				p.mapPage(ctx, r, pva, src, r.prot&^gmi.ProtWrite)
				p.noteReference(src)
				return nil
			}
			if _, err := p.breakStub(c, off, e, span); err != nil {
				return err
			}
			continue

		case nil:
			*worked = true
			if pr := c.findParent(off); pr != nil {
				if write || p.copyOnRef {
					if _, err := p.materializePrivate(c, off, span); err != nil {
						return err
					}
					continue
				}
				// Read miss: share the ancestor's page read-only
				// (copy-on-write policy, Figure 3.a).
				p.clock.Charge(cost.EvHistoryLookup, 1)
				src, err := p.ensureResident(pr.parent, pr.translate(off), gmi.ProtRead, span)
				if err != nil {
					return err
				}
				if src == nil {
					continue
				}
				p.mapPage(ctx, r, pva, src, r.prot&^gmi.ProtWrite)
				p.noteReference(src)
				return nil
			}
			// c owns this offset: bring the data in from its segment
			// (or zero-fill a temporary) and loop to map it.
			if err := p.bringIn(c, off, access, span); err != nil {
				return err
			}
			continue

		default:
			panic(fmt.Sprintf("core: unknown global map entry %T", e))
		}
	}
}

// readProt computes the mapping protection for a read fault on the
// cache's own page: the region's protection, write-masked while the page
// is a deferred-copy source, has stub readers, lacks granted write access,
// or is capped by the cache protection.
func (p *PVM) readProt(r *region, pg *page) gmi.Prot {
	prot := r.prot &^ gmi.ProtWrite
	return prot & (pg.granted | gmi.ProtSystem) & (pg.cache.protCap | gmi.ProtSystem)
}

// mapPage installs the translation and records it in the page's rmap.
// Caller holds p.mu exclusively or the page's key shard mutex; the space
// itself is touched under the context's spaceMu leaf lock.
func (p *PVM) mapPage(ctx *context, r *region, pva gmi.VA, pg *page, prot gmi.Prot) {
	ctx.spaceMu.Lock()
	ctx.space.Map(pva, pg.frame, prot)
	ctx.spaceMu.Unlock()
	pg.addMapping(ctx, pva)
}

// waitStub blocks until an in-transit fragment settles; p.mu (exclusive)
// released and reacquired. The wait (fragment plus relock) is attributed
// to the span's lock-wait stage.
func (p *PVM) waitStub(s *syncStub, span *obs.FaultSpan) {
	ch := s.done
	span.Mark(obs.StageResolve)
	p.mu.Unlock()
	<-ch
	p.mu.Lock()
	span.Mark(obs.StageLockWait)
}

// waitBusy blocks until a push-out completes; p.mu (exclusive) released
// and reacquired. Attributed like waitStub.
func (p *PVM) waitBusy(pg *page, span *obs.FaultSpan) {
	ch := pg.busyDone
	if ch == nil {
		return
	}
	span.Mark(obs.StageResolve)
	p.mu.Unlock()
	<-ch
	p.mu.Lock()
	span.Mark(obs.StageLockWait)
}

// stubSource returns the resident source page of a per-page stub, pulling
// the source chain in if necessary. Returns (nil, nil) if the stub was
// resolved or replaced while the lock was released; the caller restarts.
func (p *PVM) stubSource(st *cowStub, span *obs.FaultSpan) (*page, error) {
	if st.src != nil && !st.src.busy {
		return st.src, nil
	}
	src, err := p.ensureResident(st.srcCache, st.srcOff, gmi.ProtRead, span)
	if err != nil || src == nil {
		return nil, err
	}
	// The walk may have released the lock; verify the stub is still the
	// live entry before using the page.
	if cur := p.gmapGet(pageKey{st.dstCache, st.dstOff}); cur != mapEntry(st) {
		return nil, nil
	}
	return src, nil
}

// ensureResident walks the deferred-copy structure from (c, off) until it
// finds the page holding the current logical content, pulling data in at
// the owning cache when nothing is resident. It returns with p.mu held;
// the returned page is valid at return time (callers must use it before
// releasing the lock).
func (p *PVM) ensureResident(c *cache, off int64, access gmi.Prot, span *obs.FaultSpan) (*page, error) {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("core: ensureResident livelock")
		}
		p.clock.Charge(cost.EvGlobalMapOp, 1)
		switch e := p.gmapGet(pageKey{c, off}).(type) {
		case *page:
			if e.busy {
				p.waitBusy(e, span)
				continue
			}
			return e, nil
		case *syncStub:
			p.waitStub(e, span)
			if e.err != nil {
				return nil, e.err
			}
			continue
		case *cowStub:
			if e.src != nil && !e.src.busy {
				return e.src, nil
			}
			c, off = e.srcCache, e.srcOff
			continue
		case nil:
			if pr := c.findParent(off); pr != nil {
				p.clock.Charge(cost.EvHistoryLookup, 1)
				c, off = pr.parent, pr.translate(off)
				continue
			}
			if err := p.bringIn(c, off, access, span); err != nil {
				return nil, err
			}
			continue
		}
	}
}

// bringIn makes (c, off) resident at its owning cache c: zero-fill for
// temporaries, a pager fill (submit.go) otherwise. A
// synchronization stub blocks concurrent access to each in-transit page
// (section 4.1.2). When read-ahead is configured, the pull is clustered
// over the following empty owner-resolved pages, amortizing the
// segment's positioning cost. p.mu held exclusively; released around
// reclaim and the upcall.
func (p *PVM) bringIn(c *cache, off int64, access gmi.Prot, span *obs.FaultSpan) error {
	seg := c.seg
	key := pageKey{c, off}
	stub := &syncStub{done: make(chan struct{})}
	p.gmapSet(key, stub)
	p.clock.Charge(cost.EvGlobalMapOp, 1)

	// The primary page's frame is reserved now, evicting if need be; the
	// lock may have been out, so the stub must still hold the key (an
	// explicit FillUp may have answered it meanwhile).
	release, err := p.reserveFrames(1)
	if err != nil || p.gmapGet(key) != mapEntry(stub) {
		if err == nil {
			release()
		}
		if p.gmapGet(key) == mapEntry(stub) {
			p.gmapDelete(key)
		}
		p.settleStub(stub)
		return err
	}
	if seg == nil {
		// Zero-fill: the MM "unilaterally decides to cache" the
		// fragment; no segment is involved until first push-out.
		defer release()
		span.Mark(obs.StageResolve)
		f, err := p.mem.AllocZeroed()
		if err != nil {
			p.gmapDelete(key)
			p.settleStub(stub)
			return err
		}
		span.Mark(obs.StageContent)
		pg := &page{frame: f, off: off, granted: gmi.ProtRWX, dirty: true}
		p.gmapDelete(key)
		p.addPage(c, pg)
		p.afterResident(c, pg)
		atomic.AddUint64(&p.stats.ZeroFills, 1)
		p.obs.Emit(obs.KindZeroFill, int64(c.id), off)
		p.settleStub(stub)
		return nil
	}

	// Submit/complete protocol from the exclusive tier, with the same
	// builder and completion as the fast path: we park on the primary
	// stub with the lock released and let the caller re-resolve.
	// The window of the region that faulted is in the faulting cache's
	// offsets, while c may be an ancestor reached through history
	// fragments; the exclusive tier's cluster is left unbounded.
	req := p.stubFill(c, off, math.MaxInt64, access|gmi.ProtRead, stub, release)
	span.Mark(obs.StageResolve)
	p.mu.Unlock()
	err = p.awaitFill(pagerOf(seg), c, off, stub, span, req)
	p.mu.Lock()
	span.Mark(obs.StageLockWait)
	return err
}

// afterResident applies the bookkeeping a freshly resident own page needs:
// re-establish deferred-copy protection if the offset lies in the cache's
// protected history fragment, and re-thread any per-page stubs that were
// waiting for the content; p.mu held exclusively.
func (p *PVM) afterResident(c *cache, pg *page) {
	if p.historyWants(c, pg.off) {
		pg.cowProtected = true
	}
	if c.remoteStubs != nil {
		if head, ok := c.remoteStubs[pg.off]; ok {
			delete(c.remoteStubs, pg.off)
			tail := head
			for {
				tail.src = pg
				if tail.nextForPage == nil {
					break
				}
				tail = tail.nextForPage
			}
			tail.nextForPage = pg.stubs
			pg.stubs = head
		}
	}
}

// breakOwnForWrite resolves a write reference to a page the cache itself
// owns: upgrade segment-granted access if needed, preserve the original
// into the history object (section 4.2.2), detach per-page stub readers
// (section 4.3), then invalidate stale read mappings so the writer's new
// mapping is authoritative. Returns restarted=true when the lock was
// released and the caller must re-resolve. p.mu held exclusively.
func (p *PVM) breakOwnForWrite(c *cache, off int64, pg *page, span *obs.FaultSpan) (restarted bool, err error) {
	if c.protCap&gmi.ProtWrite == 0 {
		return false, gmi.ErrProtection
	}
	if !pg.granted.Allows(gmi.ProtWrite) {
		if c.seg == nil {
			pg.granted |= gmi.ProtWrite
		} else {
			seg := c.seg
			pg.pin++ // hold the page across the upcall
			revokes := pg.revokes
			span.Mark(obs.StageResolve)
			p.mu.Unlock()
			start := p.obs.Clock()
			err := seg.GetWriteAccess(c, off, p.pageSize)
			p.obs.Span(obs.KindGetWrite, obs.OpGetWrite, int64(c.id), off, start)
			p.mu.Lock()
			span.Mark(obs.StageSubmit)
			pg.pin--
			if err != nil {
				return true, err
			}
			if pg.revokes == revokes {
				// Otherwise the segment withheld write access after
				// granting it (a coherence downgrade); the restarted
				// fault asks again.
				pg.granted |= gmi.ProtWrite
			}
			return true, nil
		}
	}
	if pg.cowProtected {
		if p.historyWants(c, off) {
			// Allocate the original's new home in the history object
			// (the "page lookup in the history tree" of section 5.3.2).
			p.clock.Charge(cost.EvHistoryLookup, 1)
			if _, err := p.clonePageInto(c.history, c.histTranslate(off), pg, span); err != nil {
				return true, err
			}
			atomic.AddUint64(&p.stats.HistoryPushes, 1)
			p.obs.Emit(obs.KindHistoryPush, int64(c.id), off)
			// The clone released the lock; re-resolve.
			pg.cowProtected = false
			return true, nil
		}
		// The history already holds the original (or is gone): the
		// page just becomes writable.
		pg.cowProtected = false
	}
	if pg.stubs != nil {
		if err := p.transferToStubs(pg, span); err != nil {
			return true, err
		}
		return true, nil
	}
	// Readers may hold this frame read-only through descendant caches;
	// after the write their view must come from the history path.
	p.invalidateMappings(pg)
	return false, nil
}

// installOwnPage inserts a freshly materialized dirty page at (dst, off):
// it clears whatever shadowing entry the global map still holds for the
// key (a copy-on-write stub is unhooked from its source, anything else is
// deleted), links the page into dst and runs the afterResident hooks.
// Shared tail of zeroPageInto and clonePageInto. p.mu held exclusively.
func (p *PVM) installOwnPage(dst *cache, off int64, f *phys.Frame) *page {
	pg := &page{frame: f, off: off, granted: gmi.ProtRWX, dirty: true}
	if old := p.gmapGet(pageKey{dst, off}); old != nil {
		if st, isStub := old.(*cowStub); isStub {
			p.removeStub(st)
		} else {
			p.gmapDelete(pageKey{dst, off})
		}
	}
	p.addPage(dst, pg)
	p.afterResident(dst, pg)
	return pg
}

// zeroPageInto allocates a zero-filled dirty page at (dst, off); may
// release the lock, so callers re-validate. Used when explicitly moved
// zeros must shadow older segment content. p.mu held exclusively.
func (p *PVM) zeroPageInto(dst *cache, off int64, span *obs.FaultSpan) (*page, error) {
	release, err := p.reserveFrames(1)
	if err != nil {
		return nil, err
	}
	defer release()
	if pg := p.ownPage(dst, off); pg != nil {
		return pg, nil
	}
	span.Mark(obs.StageResolve)
	f, err := p.mem.AllocZeroed()
	if err != nil {
		return nil, err
	}
	span.Mark(obs.StageContent)
	return p.installOwnPage(dst, off, f), nil
}

// clonePageInto allocates a page at (dst, off) initialized with src's
// contents. May release the lock to reserve a frame; the caller must
// re-validate. Returns the new page. p.mu held exclusively.
func (p *PVM) clonePageInto(dst *cache, off int64, src *page, span *obs.FaultSpan) (*page, error) {
	src.pin++
	release, err := p.reserveFrames(1)
	src.pin--
	if err != nil {
		return nil, err
	}
	defer release()
	if pg := p.ownPage(dst, off); pg != nil {
		// Someone else materialized it while the lock was out.
		return pg, nil
	}
	f, err := p.mem.Alloc()
	if err != nil {
		return nil, err
	}
	span.Mark(obs.StageResolve)
	p.mem.CopyFrame(f, src.frame)
	span.Mark(obs.StageContent)
	return p.installOwnPage(dst, off, f), nil
}
