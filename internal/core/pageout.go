package core

import (
	"cmp"
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
		progress, err := p.evictStep()
		if err != nil {
			return nil, err
		}
		if !progress {
			return nil, gmi.ErrNoMemory
		}
	}
}

// usable vets a policy candidate for reclaim. It runs under the policy's
// internal mutex and only reads page fields, which are stable under the
// exclusive structural lock the caller holds.
func (p *PVM) usable(n *policy.Node) bool {
	pg := n.Owner.(*page)
	if pg.pin > 0 || pg.busy {
		return false
	}
	if pg.dirty && pg.cache.seg == nil && p.segalloc == nil {
		return false // nowhere to push; try another victim
	}
	return true
}

// evict is the reclaim pass: it selects up to max victims in one policy
// scan and makes one unit of progress per clean victim freed, per dirty
// victim pushed out and dropped, and per cache assigned a swap segment.
// Dirty victims whose cache has no segment yet are not acted on: the
// selection is abandoned in place and the cache gets its segment (one
// segmentCreate upcall, however many of its pages were selected), so a
// later pass pushes them. The dirty victims' pushOut upcalls are issued
// concurrently (see pushPages) and the store engine underneath
// coalesces their writes; a victim whose push fails is requeued at the
// back of the eviction order. Returns the progress made, the number of
// victims whose push failed, and the first error. p.mu held
// exclusively; released around the upcalls.
func (p *PVM) evict(max int) (done, failed int, err error) {
	start := p.obs.Clock()
	sel := p.pol.SelectVictims(nil, max, p.usable)
	p.obs.Span(obs.KindPolicyWait, obs.OpPolicyWait, 0, int64(len(sel)), start)
	var (
		frames []*phys.Frame // freed with one FreeBatch per pass
		dirty  []*page
		noSeg  []*cache
	)
	for _, n := range sel {
		pg := n.Owner.(*page)
		switch {
		case !pg.dirty:
			frames = p.evictPage(pg, frames)
			done++
		case pg.cache.seg == nil:
			p.pol.Unselect(n)
			noSeg = append(noSeg, pg.cache)
		default:
			dirty = append(dirty, pg)
		}
	}
	// Return the clean victims' frames before (possibly) blocking on the
	// pushes: allocators waiting on FreeFrames see them immediately.
	p.mem.FreeBatch(frames)
	frames = frames[:0]
	if len(dirty) > 1 {
		atomic.AddUint64(&p.stats.AsyncBatches, 1)
	}
	if len(dirty) > 0 {
		for i, perr := range p.pushPages(dirty) {
			pg := dirty[i]
			if perr != nil {
				if err == nil {
					err = perr
				}
				failed++
				if pg.frame != nil {
					// Stays dirty and resident; requeue so the next pass
					// picks other candidates instead of re-selecting a
					// victim whose backing store keeps failing.
					p.pol.Requeue(&pg.pnode)
				}
				continue
			}
			frames = p.evictPage(pg, frames)
			done++
		}
		p.mem.FreeBatch(frames)
	}
	for _, c := range noSeg {
		if c.freed || c.seg != nil {
			// Assigned for an earlier victim of this pass, or settled
			// while the pushes had p.mu released.
			continue
		}
		if serr := p.assignSwap(c); serr != nil {
			if err == nil {
				err = serr
			}
			continue
		}
		done++
	}
	return done, failed, err
}

// evictStep makes one unit of reclaim progress with one-victim passes.
// A victim whose pushOut fails is requeued by the pass and the scan
// restarts, so one page with a broken backing store cannot wedge reclaim
// while other candidates remain; the first such error is reported only
// when no candidate makes progress. Returns false when nothing can be
// reclaimed. p.mu held; may be released around upcalls.
func (p *PVM) evictStep() (bool, error) {
	var firstErr error
	// Each failed push moves its victim off the victim slot, so the
	// number of restarts is bounded by the queue length at entry (plus
	// churn from the released lock, hence the slack).
	for fails, limit := 0, p.pol.Len()+1; fails <= limit; fails++ {
		done, failed, err := p.evict(1)
		if done > 0 {
			return true, nil
		}
		if failed == 0 {
			return false, cmp.Or(err, firstErr)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return false, firstErr
}

// evictPage accounts the eviction of a clean (or just pushed) victim and
// unlinks it, appending its frame to frames — unless a moveBack already
// took the page out of memory while it was being pushed. p.mu held.
func (p *PVM) evictPage(pg *page, frames []*phys.Frame) []*phys.Frame {
	c := pg.cache
	if pg.frame != nil {
		p.moveStubsToRemote(pg)
		frames = append(frames, p.unlinkResident(pg))
	}
	atomic.AddUint64(&p.stats.Evictions, 1)
	p.obs.Emit(obs.KindEvict, int64(c.id), pg.off)
	return frames
}

// assignSwap declares a unilaterally created cache (a temporary or a
// history object) to the upper layer with the segmentCreate upcall, so
// its dirty pages can be pushed out (section 5.1.2). p.mu held; released
// around the upcall.
func (p *PVM) assignSwap(c *cache) error {
	if p.segalloc == nil {
		return gmi.ErrNoSegment
	}
	p.mu.Unlock()
	start := p.obs.Clock()
	seg, err := p.segalloc.SegmentCreate(c)
	p.obs.Span(obs.KindSegCreate, obs.OpPushOut, int64(c.id), 0, start)
	p.mu.Lock()
	if err != nil {
		return err
	}
	if c.seg == nil {
		c.seg, c.segOwned = seg, true
	}
	return nil
}

// pushPages writes dirty pages back through their segments' pushOut
// upcalls and returns each page's outcome. Every page is marked busy
// first: concurrent access blocks, the frame stays stable, and
// copyBack/moveBack find the data in the global map. The first page is
// pushed on the calling goroutine and the rest concurrently, so pushing
// one page costs no goroutine. On success a page still resident (the
// copyBack path) is clean, and its cache's own segment now holds it.
// Every page's cache must have a segment. p.mu held; released around
// the upcalls.
func (p *PVM) pushPages(pgs []*page) []error {
	segs := make([]gmi.Segment, len(pgs))
	for i, pg := range pgs {
		segs[i] = pg.cache.seg
		pg.busy = true
		pg.busyDone = make(chan struct{})
		// Writers must fault (and block on busy) while the push is in
		// flight, so the pushed snapshot is coherent.
		p.protectMappings(pg, gmi.ProtRead|gmi.ProtExec|gmi.ProtSystem)
		atomic.AddUint64(&p.stats.PushOuts, 1)
		p.clock.Charge(cost.EvPushOut, 1)
	}

	errs := make([]error, len(pgs))
	push := func(i int) {
		c, off := pgs[i].cache, pgs[i].off
		start := p.obs.Clock()
		errs[i] = segs[i].PushOut(c, off, p.pageSize)
		p.obs.Span(obs.KindPushOut, obs.OpPushOut, int64(c.id), off, start)
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for i := 1; i < len(pgs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			push(i)
		}(i)
	}
	push(0)
	wg.Wait()
	p.mu.Lock()

	for i, pg := range pgs {
		pg.busy = false
		close(pg.busyDone)
		pg.busyDone = nil
		if errs[i] != nil {
			continue
		}
		if pg.frame != nil {
			pg.dirty = false
		}
		// Any parent link at the offset is permanently superseded, so an
		// eviction cannot resurrect inherited content.
		p.supersedeParent(pg.cache, pg.off)
	}
	return errs
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
			if p.mem.FreeFrames() >= low {
				continue
			}
			p.mu.Lock()
			// Harvest referenced bits for the replacement policy; the
			// daemon's tick is the harvest's clock.
			p.policyTickLocked()
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
			for evicted := 0; evicted < budget && p.mem.FreeFrames() < high; {
				done, _, _ := p.evict(budget - evicted)
				if done == 0 {
					break
				}
				evicted += done
			}
			p.mu.Unlock()
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// PageOut forces up to n steps of reclaim, one victim at a time; a
// tool/test hook for the page-out daemon a real kernel would run. Returns
// the number of steps taken. A step frees a frame — a clean victim, or a
// dirty one pushed out — or assigns a swap segment to a temporary cache
// whose dirty victim needs one, which frees nothing by itself.
func (p *PVM) PageOut(n int) int {
	p.mu.Lock()
	defer p.unlock()
	done := 0
	for done < n {
		progress, err := p.evictStep()
		if err != nil || !progress {
			break
		}
		done++
	}
	return done
}
