package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
)

// This file is the PVM's one fill protocol, submit/complete. A fault on
// a segment installs synchronization stubs, takes a frame for every page
// of the read-ahead cluster, submits one gmi.PageRequest whose Dst points
// the driver at those frames, and parks on the primary stub's channel.
// The driver (the segment, or pullInPager for a segment that implements
// only PullIn) reads each page straight into its frame and completes the
// request, a demand fill typically inside SubmitPull; the completion runs
// right there, publishing the frames as resident pages, settling the
// stubs and waking every context that faulted on them — one device
// round-trip serves all waiters and read-ahead pages install without any
// faulting thread. Each fast-path fill also speculates the next cluster
// with a second, fire-and-forget request (Speculative) served off the
// submitter, pipelining sequential reads.
//
// Both fault tiers submit the same way. The fast path (fastSubmitPull)
// reserves the primary frame without evicting and bails out to the
// exclusive tier when it cannot; the exclusive tier (bringIn) reserves
// it with reserveFrames, which may evict. Every neighbour of the
// cluster takes a non-evicting reservation (installStubRun), so a fill
// never evicts for read-ahead, and all of a fill's reclaim happens at
// submit, on the faulting goroutine.
//
// # Ordering rules for inline completion
//
//   - Each completion is processed whole, inline, by the goroutine that
//     calls PageRequest.Complete (exactly once per request). Completions
//     for independent clusters run concurrently on their drivers'
//     goroutines. That is safe because two completions never share a
//     stub or a page key: a stub is installed once per key by exactly
//     one submission, and every publish or settle is guarded by that
//     key's shard mutex or by p.mu held exclusively.
//   - Within one completion, pages publish in reverse cluster order: the
//     primary (faulted) stub settles last, so when its waiters wake the
//     whole cluster is already resident. No ordering is promised between
//     completions; none is needed, since they are key-disjoint.
//   - A completion enters holding no PVM lock and takes p.mu itself —
//     shared while the cache is in the simple state, exclusive otherwise
//     — and takes no frame and evicts nothing for its pages: their
//     frames were taken at submit. (The one exception is shared with
//     FillUp: a copy that landed on a page in flight makes the exclusive
//     publish's supersedeParent reap a parent, which may fill pages.)
//     Outside that case it cannot deadlock against the goroutine it
//     runs on (the submitter, a store.Engine worker, a mapper goroutine):
//     no PVM path holds p.mu, in either mode, while it waits for a
//     driver's goroutine or for a page in transit — waitStub, waitBusy
//     and the fast fault path release it before they park, and upcalls,
//     submissions included, are issued unlocked, so a driver may even
//     complete synchronously inside SubmitPull.
//
// # Who owns an in-flight frame
//
// A submission turns each stub's frame reservation into a frame at
// submit time, under p.mu (shared on the fast path, exclusive on the
// exclusive tier), and counts it in p.inFlightFrames. From then until
// the completion publishes or frees it, the frame belongs to the
// in-flight I/O: only the driver writes its Data. The completion
// publishes or frees each frame and lowers inFlightFrames while it still
// holds p.mu (either mode), so the frame-accounting invariant, checked
// under p.mu exclusive, always sees free + resident + in flight ==
// total; and it does so before settling the page's stub, so a woken
// waiter never finds the frame in flight.
//
// # Why publishing under RLock is sound
//
// While the cache has own content only (no history, no parents, no
// remote stub readers, not destroyed) the completion installs pages
// holding p.mu.RLock plus one shard mutex per key, exactly like
// fastZeroFill: a foreign syncStub is never replaced by other RLock
// holders (they park on it), and every exclusive-lock mutator is
// excluded for as long as the RLock is held, so the check "is the map
// entry still our stub" decides ownership of the key with no further
// coordination. Any other cache publishes under p.mu exclusively, which
// adds the residency bookkeeping (supersedeParent, afterResident) those
// states need.
//
// # A stub replaced in flight
//
// Whoever replaced or removed a fill's stub while the device worked (an
// explicit FillUp, cache teardown) owns the key: its content stands and
// the completion frees the frame it read into, on either tier.

// fillCompletion carries one completed (or failed) fill from a pager
// driver's Complete call into the PVM. stubs[i] guards the page at
// off + i*pageSize, and frames[i] is the frame that page was read into,
// taken at submit time.
type fillCompletion struct {
	c      *cache
	off    int64
	mode   gmi.Prot
	stubs  []*syncStub
	frames []*phys.Frame
	data   []byte
	err    error
}

// completeFill runs one completion. A driver that returned bytes instead
// of filling Dst (a decorator re-wrapped the request) has them copied
// into the fill's frames first, with no lock held: the frames belong to
// the fill. Then the outcome is published under p.mu — shared when the
// cache is still in the simple state (all the fields that decide it are
// stable under RLock), exclusive otherwise. A completion for a cache
// torn down meanwhile fails with gmi.ErrDestroyed (unless teardown is
// itself recovering the content, c.reaping).
func (p *PVM) completeFill(fc *fillCompletion) {
	atomic.AddUint64(&p.stats.FillCompletes, 1)
	p.obs.Emit(obs.KindFillComplete, int64(fc.c.id), fc.off)
	if fc.err == nil && fc.data != nil {
		for i, f := range fc.frames {
			chunk := fc.data[min(int64(i)*p.pageSize, int64(len(fc.data))):]
			if int64(len(chunk)) < p.pageSize {
				p.mem.Zero(f)
			}
			copy(f.Data, chunk)
		}
	}
	c := fc.c
	p.mu.RLock()
	shared := !c.destroyed && c.history == nil && len(c.parents) == 0 && len(c.remoteStubs) == 0
	if !shared {
		p.mu.RUnlock()
		p.mu.Lock()
	}
	if fc.err == nil && c.freed && !c.reaping {
		fc.err = gmi.ErrDestroyed
	}
	if fc.err != nil {
		p.failFill(fc)
	} else {
		p.publishFill(fc, shared)
	}
	if shared {
		p.mu.RUnlock()
	} else {
		p.mu.Unlock()
	}
}

// failFill frees the fill's frames and settles every stub, stamping the
// error so the parked submitter reports it; waiters that merely blocked
// on a stub retry their fault and re-derive the outcome. p.mu held in
// either mode; each key is settled under its shard mutex, which guards
// the key in both modes.
func (p *PVM) failFill(fc *fillCompletion) {
	for _, f := range fc.frames {
		p.mem.Free(f)
	}
	atomic.AddInt64(&p.inFlightFrames, -int64(len(fc.frames)))
	fc.frames = nil
	for i, stub := range fc.stubs {
		key := pageKey{fc.c, fc.off + int64(i)*p.pageSize}
		sh := p.shardOf(key)
		sh.mu.Lock()
		if sh.m[key] == mapEntry(stub) {
			delete(sh.m, key)
			p.clock.Charge(cost.EvGlobalMapOp, 1)
		}
		if !stub.closed {
			stub.err = fc.err
		}
		p.settleStub(stub)
		sh.mu.Unlock()
	}
}

// publishFill installs a successful fill, in reverse order so the
// primary stub settles last (waiters wake to a fully resident cluster).
// Each page lands in the frame it was read into; a key whose stub was
// replaced in flight keeps its replacer's content and the frame goes
// back. With shared set, p.mu is held shared and each key is taken under
// its shard mutex; afterResident and supersedeParent would be no-ops in
// the state completeFill verified, so they are skipped, exactly as in
// fastZeroFill. Otherwise p.mu is held exclusively and they run.
func (p *PVM) publishFill(fc *fillCompletion, shared bool) {
	c := fc.c
	for i := len(fc.stubs) - 1; i >= 0; i-- {
		off := fc.off + int64(i)*p.pageSize
		stub, f := fc.stubs[i], fc.frames[i]
		key := pageKey{c, off}
		sh := p.shardOf(key)
		// The cost model charges the paper's fillUp copy, which the
		// simulated kernel makes whether or not this one does.
		p.clock.Charge(cost.EvBcopyPage, 1)
		if shared {
			sh.mu.Lock()
		} else {
			p.supersedeParent(c, off)
		}
		if sh.m[key] == mapEntry(stub) {
			delete(sh.m, key)
			pg := &page{frame: f, off: off, granted: fc.mode}
			p.addPage(c, pg)
			if !shared {
				p.afterResident(c, pg)
			}
		} else {
			p.mem.Free(f)
		}
		// The frame is resident or free before anyone wakes: a woken
		// waiter never sees it still counted in flight.
		atomic.AddInt64(&p.inFlightFrames, -1)
		p.settleStub(stub)
		if shared {
			sh.mu.Unlock()
		}
	}
}

// installStubRun installs fresh syncStubs, each with its own non-evicting
// frame reservation, over up to max contiguous pages starting at off. The
// run stops at the first page that is already occupied, covered by a
// parent fragment, or out of reservations; starved reports that last
// cause, so callers with no waiter to serve can abandon the run instead
// of fighting residents for frames. Called with p.mu.RLock held; each
// stub is installed under its own shard mutex, one at a time.
func (p *PVM) installStubRun(c *cache, off int64, max int) (_ []*syncStub, _ []func(), starved bool) {
	var stubs []*syncStub
	var releases []func()
	for len(stubs) < max {
		o := off + int64(len(stubs))*p.pageSize
		if c.findParent(o) != nil {
			break
		}
		rel, ok := p.tryReserveFrames(1)
		if !ok {
			starved = true
			break
		}
		k := pageKey{c, o}
		sh := p.shardOf(k)
		sh.mu.Lock()
		if sh.m[k] != nil {
			sh.mu.Unlock()
			rel()
			break
		}
		s := &syncStub{done: make(chan struct{})}
		sh.m[k] = s
		p.clock.Charge(cost.EvGlobalMapOp, 1)
		sh.mu.Unlock()
		stubs = append(stubs, s)
		releases = append(releases, rel)
	}
	return stubs, releases, starved
}

// cancelSpeculation tears down a partially installed speculative stub run
// that ran out of frame reservations: each installed stub is removed and
// settled under its own shard mutex (waiters that found the stub in the
// window just retry their fault and resubmit as a demand fill), and every
// reservation is returned. Called with p.mu.RLock held, no shard mutex.
func (p *PVM) cancelSpeculation(c *cache, off int64, stubs []*syncStub, releases []func()) {
	for i, s := range stubs {
		k := pageKey{c, off + int64(i)*p.pageSize}
		sh := p.shardOf(k)
		sh.mu.Lock()
		if sh.m[k] == mapEntry(s) {
			delete(sh.m, k)
			p.clock.Charge(cost.EvGlobalMapOp, 1)
		}
		p.settleStub(s)
		sh.mu.Unlock()
	}
	for _, r := range releases {
		r()
	}
	atomic.AddUint64(&p.stats.SpeculationsCancelled, 1)
	p.obs.Emit(obs.KindSpecCancel, int64(c.id), off)
}

// stubFill extends the stub just installed at (c, off), whose frame
// reservation is release, over the rest of the read-ahead cluster up to
// cache offset end, and builds the cluster's fill request. It is the one
// submit builder of both fault tiers. Returns nil when the fill failed
// before submission. p.mu held in either mode, no shard mutex.
func (p *PVM) stubFill(c *cache, off, end int64, mode gmi.Prot, stub *syncStub, release func()) *gmi.PageRequest {
	next := off + p.pageSize
	more, moreRel, _ := p.installStubRun(c, next, p.pagesBefore(next, end, p.readAhead-1))
	return p.newFillRequest(c, off, mode, false, append([]*syncStub{stub}, more...), append([]func(){release}, moreRel...))
}

// pagesBefore returns how many of up to limit pages starting at off lie
// below cache offset end.
func (p *PVM) pagesBefore(off, end int64, limit int) int {
	return int(min(max((end-off)/p.pageSize, 0), int64(limit)))
}

// newFillRequest builds the PageRequest for a stub run, turning the
// run's frame reservations into the frames the driver reads into
// (r.Dst); speculative sets r.Speculative. Its completion callback
// stamps the outcome and runs completeFill inline, on whatever goroutine
// the driver finishes on. The reservations make allocation failure
// unreachable; should it happen anyway, the fill fails with
// gmi.ErrNoMemory before it is submitted and nil is returned. p.mu held in either mode, no shard mutex.
func (p *PVM) newFillRequest(c *cache, off int64, mode gmi.Prot, speculative bool, stubs []*syncStub, releases []func()) *gmi.PageRequest {
	fc := &fillCompletion{c: c, off: off, stubs: stubs}
	frames, err := p.allocFillFrames(len(stubs))
	for _, r := range releases {
		r()
	}
	if err != nil {
		fc.err = gmi.ErrNoMemory
		p.failFill(fc)
		return nil
	}
	fc.frames = frames
	req := gmi.NewPageRequest(c, off, int64(len(stubs))*p.pageSize, mode,
		func(data []byte, granted gmi.Prot, err error) {
			fc.data, fc.err = data, err
			fc.mode = mode
			if granted != gmi.ProtNone {
				fc.mode = granted
			}
			p.completeFill(fc)
		})
	req.Speculative = speculative
	req.Dst = make([][]byte, len(frames))
	for i, f := range frames {
		req.Dst[i] = f.Data
	}
	return req
}

// allocFillFrames allocates the n frames of a fill and counts them in
// flight; p.mu held in either mode, with n frames reserved. On failure
// the frames taken so far go back.
func (p *PVM) allocFillFrames(n int) ([]*phys.Frame, error) {
	frames := make([]*phys.Frame, 0, n)
	for len(frames) < n {
		f, err := p.mem.Alloc()
		if err != nil {
			for _, f := range frames {
				p.mem.Free(f)
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	atomic.AddInt64(&p.inFlightFrames, int64(n))
	return frames, nil
}

// awaitFill submits the built requests (nil ones are skipped) and parks
// until the primary stub settles, returning the fill's outcome. Called
// with no PVM lock held: a driver may complete inside SubmitPull.
func (p *PVM) awaitFill(pager gmi.Pager, c *cache, off int64, stub *syncStub, span *obs.FaultSpan, reqs ...*gmi.PageRequest) error {
	start := p.obs.Clock()
	for _, req := range reqs {
		if req == nil {
			continue
		}
		atomic.AddUint64(&p.stats.PullIns, 1)
		atomic.AddUint64(&p.stats.FillSubmits, 1)
		p.clock.Charge(cost.EvPullIn, 1)
		p.obs.Emit(obs.KindFillSubmit, int64(c.id), req.Off)
		pager.SubmitPull(req)
	}
	span.Mark(obs.StageSubmit)
	<-stub.done
	p.obs.Span(obs.KindPullIn, obs.OpPullIn, int64(c.id), off, start)
	span.Mark(obs.StageComplete)
	return stub.err
}

// fastSubmitPull is the fast path's fill: entered from fastFaultOnce
// holding p.mu.RLock and the primary key's shard mutex, with the key
// empty and the cache in the simple state (own content only). end is
// the cache offset where the faulting region's window ends; no page at
// or past it is filled, on demand or by speculation. It installs stubs
// over the read-ahead cluster, submits one PageRequest,
// releases the RLock and parks on the primary stub. On success the
// caller retries the fast path, which finds the published page and maps
// it. A fault that would have to evict for its frame bails out to the
// exclusive tier instead.
//
// With clustering enabled it also submits one speculative request for the
// next cluster, fire-and-forget: no context parks on those stubs, so the
// completion installs the pages without any faulting thread, and a
// sequential reader overlaps the next device round-trip with consuming
// the current cluster.
func (p *PVM) fastSubmitPull(c *cache, off, end int64, key pageKey, sh *gmapShard, pager gmi.Pager, access gmi.Prot, span *obs.FaultSpan) (bool, bool, error) {
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

	req := p.stubFill(c, off, end, access|gmi.ProtRead, stub, release)
	var spec *gmi.PageRequest
	if p.readAhead > 1 && req != nil && off+req.Size < end {
		specOff := off + req.Size
		sstubs, srel, starved := p.installStubRun(c, specOff, p.pagesBefore(specOff, end, p.readAhead))
		switch {
		case starved:
			// Free frames ran out mid-install. Nobody waits on a
			// speculation, so it must not compete with demand faults for
			// the last frames (or trigger evictions to feed a guess):
			// drop the whole cluster and give the reservations back.
			p.cancelSpeculation(c, specOff, sstubs, srel)
		case len(sstubs) > 0:
			spec = p.newFillRequest(c, specOff, gmi.ProtRead, true, sstubs, srel)
		}
	}
	p.mu.RUnlock()

	span.Mark(obs.StageResolve)
	if err := p.awaitFill(pager, c, off, stub, span, req, spec); err != nil {
		return true, false, err
	}
	return false, true, nil
}

// pagerOf returns the driver of seg's fills: seg itself when it is a
// gmi.Pager, otherwise a pullInPager over it.
func pagerOf(seg gmi.Segment) gmi.Pager {
	if pager, ok := seg.(gmi.Pager); ok {
		return pager
	}
	return pullInPager{seg}
}

// pullInPager drives a segment that implements only PullIn as a
// gmi.Pager: each request is one pullIn upcall, answered through a
// fillShim. A demand request is served on the submitting goroutine, a
// speculative one on a goroutine of its own.
type pullInPager struct{ gmi.Segment }

// SubmitPull implements gmi.Pager.
func (a pullInPager) SubmitPull(r *gmi.PageRequest) {
	if r.Speculative {
		go a.serve(r)
	} else {
		a.serve(r)
	}
}

// serve issues the upcall. Unless a fill of the whole run completed r,
// r completes when PullIn returns, with its error or, if it returned
// nil, with gmi.ErrIO: pages an explicit fill installed stand, and the
// rest fail rather than publish frames that hold stale bytes.
func (a pullInPager) serve(r *gmi.PageRequest) {
	sh := &fillShim{Cache: r.Cache, r: r}
	err := a.PullIn(sh, r.Off, r.Size, r.Mode)
	if !sh.claim(r.Off, r.Size) {
		return
	}
	if err == nil {
		err = fmt.Errorf("%w: segment did not fill %#x+%#x", gmi.ErrIO, r.Off, r.Size)
	}
	r.Complete(nil, gmi.ProtNone, err)
}

// fillShim is the cache a pullInPager passes to PullIn: the real cache,
// except that a FillUp from the start of the run covering all of it,
// while r is in flight, is read into the run's frames and completes r
// before it returns. Any other fill, a partial one of the run included,
// is a FillUp of the real cache. Either way the pages are resident when
// FillUp returns, as the GMI promises; a coherence mapper (internal/dsm)
// relies on that while it holds its directory lock.
type fillShim struct {
	gmi.Cache
	r    *gmi.PageRequest
	mu   sync.Mutex
	done bool
}

// claim reports whether n bytes at off fill the whole run of a request
// still in flight, and if so marks it completed.
func (sh *fillShim) claim(off, n int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ok := !sh.done && off == sh.r.Off && n >= sh.r.Size
	sh.done = sh.done || ok
	return ok
}

// FillUp implements gmi.Cache.
func (sh *fillShim) FillUp(off int64, data []byte, mode gmi.Prot) error {
	r := sh.r
	if !sh.claim(off, int64(len(data))) {
		return sh.Cache.FillUp(off, data, mode)
	}
	for i, dst := range r.Dst {
		copy(dst, data[i*len(dst):])
	}
	r.Complete(nil, mode, nil)
	if rest := data[r.Size:]; len(rest) > 0 {
		return sh.Cache.FillUp(off+r.Size, rest, mode)
	}
	return nil
}
