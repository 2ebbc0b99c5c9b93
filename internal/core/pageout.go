package core

import (
	"sync"
	"sync/atomic"
	"time"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
	"chorusvm/internal/policy"
)

// This file implements physical-memory reclaim: the data-management policy
// the GMI deliberately places below the interface (section 3.3.3). Victim
// choice is delegated to the pluggable replacement policy (internal/policy;
// global LRU by default); dirty victims are pushed out through the pushOut
// upcall, and unilaterally created caches (temporaries, histories) are
// declared to the upper layer with segmentCreate when they first need
// backing store (section 5.1.2).

// noteEvict forwards an eviction to the victim's segment manager when
// its backing store can act on usage signals (a tiered store demotes
// the page). Advisory and enqueue-only per the gmi.UsageAdviser
// contract, so calling it under p.mu is safe.
func noteEvict(c *cache, off, size int64) {
	if ua, ok := c.seg.(gmi.UsageAdviser); ok {
		ua.NoteEvict(off, size)
	}
}

// reserveFrames guarantees that k subsequent Alloc calls will succeed,
// evicting pages as needed. It may release and reacquire p.mu; the caller
// must re-validate earlier lookups. The returned release function gives
// the reservation back. p.mu held exclusively; the reservation count
// itself lives under reserveMu because the fast fault path (which never
// evicts — see tryReserveFrames) reserves against the same pool.
func (p *PVM) reserveFrames(k int) (release func(), err error) {
	for {
		p.reserveMu.Lock()
		if p.mem.FreeFrames() >= p.reserved+k {
			p.reserved += k
			p.reserveMu.Unlock()
			return func() {
				p.reserveMu.Lock()
				p.reserved -= k
				p.reserveMu.Unlock()
			}, nil
		}
		p.reserveMu.Unlock()
		progress, err := p.evictOne()
		if err != nil {
			return nil, err
		}
		if !progress {
			return nil, gmi.ErrNoMemory
		}
	}
}

// usableSync vets a policy candidate for the synchronous reclaim path.
// It runs under the policy's internal mutex and only reads page fields,
// which are stable under the exclusive structural lock the caller holds.
func (p *PVM) usableSync(n *policy.Node) bool {
	pg := n.Owner.(*page)
	if pg.pin > 0 || pg.busy {
		return false
	}
	if pg.dirty && pg.cache.seg == nil && p.segalloc == nil {
		return false // nowhere to push; try another victim
	}
	return true
}

// usableBatch additionally excludes dirty pages whose cache still needs a
// swap segment: the batch path cannot issue segmentCreate (the synchronous
// fallback does).
func (p *PVM) usableBatch(n *policy.Node) bool {
	pg := n.Owner.(*page)
	return pg.pin == 0 && !pg.busy && !(pg.dirty && pg.cache.seg == nil)
}

// evictOne makes one unit of reclaim progress: freeing a clean victim,
// pushing out a dirty one, or assigning a swap segment to a cache that
// needs one. A victim whose pushOut fails is requeued at the back of the
// eviction order and the scan restarts, so one page with a broken backing
// store cannot wedge reclaim while other candidates remain; the first
// such error is reported only when a whole pass makes no progress.
// Returns false when nothing can be reclaimed. p.mu held; may be released
// around upcalls.
func (p *PVM) evictOne() (bool, error) {
	var firstErr error
	// Each failed push moves its victim off the victim slot, so the
	// number of restarts is bounded by the queue length at entry (plus
	// churn from the released lock, hence the slack).
	fails, limit := 0, p.pol.Len()+1
	for fails <= limit {
		var buf [1]*policy.Node
		start := p.obs.Clock()
		sel := p.pol.SelectVictims(buf[:0], 1, p.usableSync)
		p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, 0, int64(len(sel)), start)
		if len(sel) == 0 {
			break
		}
		pg := sel[0].Owner.(*page)
		c := pg.cache
		if !pg.dirty {
			noteEvict(c, pg.off, p.pageSize)
			p.moveStubsToRemote(pg)
			p.dropPage(pg)
			atomic.AddUint64(&p.stats.Evictions, 1)
			p.obs.Emit(obs.KindEvict, int64(c.id), pg.off)
			return true, nil
		}
		if c.seg == nil {
			// segmentCreate upcall: declare the unilaterally created
			// cache to the upper layer so it can be swapped out. The
			// victim is not acted on — the next pass pushes it — so the
			// selection is abandoned in place.
			p.pol.Unselect(&pg.pnode)
			p.mu.Unlock()
			start := p.obs.Clock()
			seg, err := p.segalloc.SegmentCreate(c)
			p.obs.Span(obs.KindSegCreate, obs.OpPushOut, int64(c.id), 0, start)
			p.mu.Lock()
			if err != nil {
				return false, err
			}
			if c.seg == nil {
				c.seg, c.segOwned = seg, true
			}
			return true, nil // progress; the next pass pushes
		}
		if err := p.pushPage(pg); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fails++
			if pg.frame != nil {
				// Still resident and dirty: requeue so the other
				// candidates get their turn before this one is retried.
				p.pol.Requeue(&pg.pnode)
			}
			// pushPage dropped p.mu; the queues may have changed under
			// us — the next SelectVictims restarts the scan.
			continue
		}
		noteEvict(c, pg.off, p.pageSize)
		if pg.frame != nil {
			p.moveStubsToRemote(pg)
			p.dropPage(pg)
		}
		atomic.AddUint64(&p.stats.Evictions, 1)
		p.obs.Emit(obs.KindEvict, int64(c.id), pg.off)
		return true, nil
	}
	return false, firstErr
}

// evictBatchAsync reclaims up to max frames in one policy pass, issuing
// the dirty victims' pushOut upcalls concurrently instead of one at a
// time: the store engine underneath coalesces the resulting writes into
// batches, so the daemon's reclaim throughput is no longer bounded by
// one device round-trip per page. Clean victims are dropped inline.
// Dirty pages in caches that still need a swap segment are skipped (the
// synchronous fallback issues segmentCreate). p.mu held exclusively;
// released while the pushes are in flight — every in-flight page is
// marked busy first, so concurrent faulters block on the page, not on
// stale state.
func (p *PVM) evictBatchAsync(max int) (int, error) {
	type victim struct {
		pg  *page
		c   *cache
		off int64
		seg gmi.Segment
	}
	evicted := 0
	var victims []victim
	var frames []*phys.Frame // freed in whole-batch depot transactions
	selStart := p.obs.Clock()
	sel := p.pol.SelectVictims(nil, max, p.usableBatch)
	p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, 0, int64(len(sel)), selStart)
	for _, n := range sel {
		pg := n.Owner.(*page)
		c := pg.cache
		if !pg.dirty {
			noteEvict(c, pg.off, p.pageSize)
			p.moveStubsToRemote(pg)
			p.dropPageInto(pg, &frames)
			atomic.AddUint64(&p.stats.Evictions, 1)
			p.obs.Emit(obs.KindEvict, int64(c.id), pg.off)
			evicted++
			continue
		}
		pg.busy = true
		pg.busyDone = make(chan struct{})
		p.protectMappings(pg, gmi.ProtRead|gmi.ProtExec|gmi.ProtSystem)
		atomic.AddUint64(&p.stats.PushOuts, 1)
		p.clock.Charge(cost.EvPushOut, 1)
		victims = append(victims, victim{pg, c, pg.off, c.seg})
	}
	// Return the clean victims' frames before (possibly) blocking on the
	// pushes: allocators waiting on FreeFrames see them immediately.
	p.mem.FreeBatch(frames)
	frames = frames[:0]
	if len(victims) == 0 {
		return evicted, nil
	}
	atomic.AddUint64(&p.stats.AsyncBatches, 1)

	errs := make([]error, len(victims))
	p.mu.Unlock()
	var wg sync.WaitGroup
	for i, v := range victims {
		wg.Add(1)
		go func(i int, v victim) {
			defer wg.Done()
			start := p.obs.Clock()
			errs[i] = v.seg.PushOut(v.c, v.off, p.pageSize)
			p.obs.Span(obs.KindPushOut, obs.OpPushOut, int64(v.c.id), v.off, start)
		}(i, v)
	}
	wg.Wait()
	p.mu.Lock()

	var firstErr error
	for i, v := range victims {
		pg := v.pg
		pg.busy = false
		close(pg.busyDone)
		pg.busyDone = nil
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			if pg.frame != nil {
				// Stays dirty and resident; requeue so the next pass
				// picks other candidates instead of re-selecting a
				// victim whose backing store keeps failing.
				p.pol.Requeue(&pg.pnode)
			}
			continue
		}
		if pg.frame != nil {
			// copyBack path: the frame stayed; the content is now clean.
			pg.dirty = false
		}
		p.supersedeParent(v.c, v.off)
		noteEvict(v.c, v.off, p.pageSize)
		if pg.frame != nil {
			p.moveStubsToRemote(pg)
			p.dropPageInto(pg, &frames)
		}
		atomic.AddUint64(&p.stats.Evictions, 1)
		p.obs.Emit(obs.KindEvict, int64(v.c.id), v.off)
		evicted++
	}
	p.mem.FreeBatch(frames)
	return evicted, firstErr
}

// dropPageInto unlinks a resident page exactly like dropPage but hands
// the frame to the caller instead of freeing it, so batch eviction can
// return a whole pass's frames in one phys.FreeBatch depot transaction.
// p.mu held; the page must not be busy (see dropPage).
func (p *PVM) dropPageInto(pg *page, frames *[]*phys.Frame) {
	if pg.busy {
		panic("core: dropPageInto on a page being pushed out")
	}
	p.invalidateMappings(pg)
	p.unlinkPage(pg)
	*frames = append(*frames, pg.frame)
	pg.frame = nil
}

// pushPage writes one dirty page back through its segment's pushOut
// upcall. The page is marked busy for the duration: concurrent access
// blocks, the frame stays stable, and copyBack/moveBack find the data in
// the global map. p.mu held; released around the upcall.
func (p *PVM) pushPage(pg *page) error {
	c, off, seg := pg.cache, pg.off, pg.cache.seg
	if seg == nil {
		return gmi.ErrNoSegment
	}
	pg.busy = true
	pg.busyDone = make(chan struct{})
	// Writers must fault (and block on busy) while the push is in
	// flight, so the pushed snapshot is coherent.
	p.protectMappings(pg, gmi.ProtRead|gmi.ProtExec|gmi.ProtSystem)
	atomic.AddUint64(&p.stats.PushOuts, 1)
	p.clock.Charge(cost.EvPushOut, 1)

	p.mu.Unlock()
	start := p.obs.Clock()
	err := seg.PushOut(c, off, p.pageSize)
	p.obs.Span(obs.KindPushOut, obs.OpPushOut, int64(c.id), off, start)
	p.mu.Lock()

	pg.busy = false
	close(pg.busyDone)
	pg.busyDone = nil
	if err != nil {
		return err
	}
	if pg.frame != nil {
		// copyBack path: the frame stayed; the content is now clean.
		pg.dirty = false
	}
	// The cache's own segment now holds this page: any parent link at
	// the offset is permanently superseded, so an eviction cannot
	// resurrect inherited content.
	p.supersedeParent(c, off)
	return nil
}

// moveStubsToRemote converts the per-page stubs threaded on a page about
// to leave memory into remote designations on its cache, from which the
// content can be recovered (section 4.3's "otherwise, it contains a
// pointer to the source local-cache descriptor and its offset").
func (p *PVM) moveStubsToRemote(pg *page) {
	if pg.stubs == nil {
		return
	}
	c := pg.cache
	if c.remoteStubs == nil {
		c.remoteStubs = make(map[int64]*cowStub)
	}
	head := pg.stubs
	pg.stubs = nil
	tail := head
	for {
		tail.src = nil
		tail.srcCache, tail.srcOff = c, pg.off
		if tail.nextForPage == nil {
			break
		}
		tail = tail.nextForPage
	}
	tail.nextForPage = c.remoteStubs[pg.off]
	c.remoteStubs[pg.off] = head
}

// StartPageoutDaemon runs the background page-out thread a real kernel
// keeps: whenever free frames fall below the low watermark, pages are
// reclaimed until the high watermark is reached. The returned function
// stops the daemon and waits for it to exit.
//
// The daemon is optional: without it, reclaim happens synchronously at
// allocation time (reserveFrames), which is deterministic and is what the
// benchmarks use. With it, allocations mostly find free frames and the
// reclaim cost moves off the fault path — the usual kernel trade.
func (p *PVM) StartPageoutDaemon(low, high int, interval time.Duration) (stop func()) {
	if high < low {
		high = low
	}
	if interval <= 0 {
		// time.NewTicker panics on non-positive intervals; treat "no
		// interval" as "poll often".
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			// Cheap unlocked pre-check to keep idle wakeups off the
			// structural lock; the authoritative check repeats below.
			// While admission control holds a context parked, the tick
			// must run even above the watermark, or nothing would ever
			// resume it.
			if p.mem.FreeFrames() >= low && !(p.admission && p.suspended.Load() > 0) {
				continue
			}
			p.mu.Lock()
			// Harvest referenced bits and run the thrashing check; this
			// is the "periodic" in periodic working-set estimation — the
			// daemon's tick is its clock.
			p.policyTickLocked(low)
			// Re-validate under the lock: frames may have been freed (or
			// another reclaimer run) since the sample above, in which
			// case evicting up to the high watermark would over-evict.
			if p.mem.FreeFrames() >= low {
				p.mu.Unlock()
				continue
			}
			// Bound the work per wakeup so one tick cannot monopolize
			// the structural lock against the fault path.
			budget := high - low
			if budget < 1 {
				budget = 1
			}
			// Batch first: dirty victims push out concurrently and the
			// store engine coalesces their writeback. Zero progress means
			// the batchable victims ran out (e.g. dirty caches awaiting
			// swap assignment) — fall back to the synchronous single-page
			// path, which can issue segmentCreate.
			evicted, _ := p.evictBatchAsync(budget)
			for ; evicted < budget && p.mem.FreeFrames() < high; evicted++ {
				progress, err := p.evictOne()
				if err != nil || !progress {
					break
				}
			}
			p.mu.Unlock()
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			// With the daemon's ticks gone nothing else ends a
			// suspension; leave no faulter parked behind.
			if p.admission {
				p.resumeAll()
			}
		})
		wg.Wait()
	}
}

// PageOut forces up to n pages to be reclaimed; a tool/test hook for the
// page-out daemon a real kernel would run. Returns how many pages were
// reclaimed.
func (p *PVM) PageOut(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	done := 0
	for done < n {
		progress, err := p.evictOne()
		if err != nil || !progress {
			break
		}
		done++
	}
	return done
}
