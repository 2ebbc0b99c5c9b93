package core

import (
	"fmt"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
)

// This file is the PVM side of the asynchronous pager protocol. A fault
// on a segment whose driver implements gmi.Pager does not block inside a
// PullIn upcall: it installs synchronization stubs, takes a frame for
// every page of the read-ahead cluster, submits one gmi.PageRequest
// whose Dst points the driver at those frames, and parks on the primary
// stub's channel. The driver reads each page straight into its frame and
// completes the request from whatever goroutine its device finishes on;
// the completion runs right there, publishing the frames as resident
// pages, settling the stubs and waking every context that faulted on
// them — one device round-trip serves all waiters, no page is copied,
// and read-ahead pages install without any faulting thread. Each
// submitted fill also speculates the next cluster with a second,
// fire-and-forget request that nobody waits on, pipelining sequential
// reads.
//
// # Ordering rules for inline completion
//
//   - Each completion is processed whole, inline, by the goroutine that
//     calls PageRequest.Complete (exactly once per request). Completions
//     for independent clusters run concurrently on their drivers'
//     goroutines. That is safe because two completions never share a
//     stub or a page key: a stub is installed once per key by exactly
//     one submission, and every publish or settle is guarded by that
//     key's shard mutex — the same argument that lets fastZeroFill run
//     on many faulting goroutines.
//   - Within one completion, pages publish in reverse cluster order: the
//     primary (faulted) stub settles last, so when its waiters wake the
//     whole cluster is already resident. No ordering is promised between
//     completions; none is needed, since they are key-disjoint.
//   - A completion enters holding no PVM lock and takes p.mu itself —
//     shared on the fast path, exclusive on the slow path, which may
//     reserve frames and so evict. It cannot deadlock against the
//     goroutine it runs on (a store.Engine worker, a mapper goroutine):
//     no PVM path holds p.mu, in either mode, while it waits for a
//     driver's goroutine or for a page in transit — waitStub, waitBusy
//     and the fast fault path release it before they park, upcalls are
//     issued unlocked, and the one engine call made under p.mu, a dead
//     cache's swap-segment Release (store.Engine.Truncate), waits only
//     for backend writes already in progress, never for a worker to take
//     queued work. The slow path's evictions push out through
//     store.Engine.Write, which never waits for a worker, and a driver
//     may even complete synchronously inside SubmitPull, since every
//     submission is made with no PVM lock held.
//
// # Who owns an in-flight frame
//
// A fast-path submission turns each stub's frame reservation into a
// frame at submit time, under p.mu.RLock, and counts it in
// p.inFlightFrames. From then until the completion publishes or frees
// it, the frame belongs to the in-flight I/O: only the driver writes its
// Data. The completion publishes or frees each frame and lowers
// inFlightFrames while it still holds p.mu (either mode), so the
// frame-accounting invariant, checked under p.mu exclusive, always sees
// free + resident + in flight == total; and it does so before settling
// the page's stub, so a woken waiter never finds the frame in flight. Exclusive-tier submissions
// (bringIn) carry no frames: their completions install through the
// FillUp machinery, copying the returned bytes.
//
// # Why publishing under RLock is sound
//
// The fast completion path installs pages holding p.mu.RLock plus one
// shard mutex per key, exactly like fastZeroFill: a foreign syncStub is
// never replaced by other RLock holders (they park on it), and every
// exclusive-lock mutator is excluded for as long as the RLock is held, so
// the check "is the map entry still our stub" decides ownership of the
// key with no further coordination.

// fillCompletion carries one completed (or failed) fill from a pager
// driver's Complete call into the PVM. stubs[i] guards the page at
// off + i*pageSize. frames, set only on fast-path submissions, are those
// pages' submit-time frames (their presence lets the pages publish under
// the shared lock).
type fillCompletion struct {
	c      *cache
	off    int64
	count  int
	mode   gmi.Prot
	stubs  []*syncStub
	frames []*phys.Frame
	data   []byte
	err    error
}

// fillRequest builds the PageRequest for fc: its completion callback
// stamps the outcome and runs completeFill inline, on whatever goroutine
// the driver finishes on.
func (p *PVM) fillRequest(fc *fillCompletion, mode gmi.Prot) *gmi.PageRequest {
	return gmi.NewPageRequest(fc.c, fc.off, int64(fc.count)*p.pageSize, mode,
		func(data []byte, granted gmi.Prot, err error) {
			fc.data, fc.err = data, err
			fc.mode = mode
			if granted != gmi.ProtNone {
				fc.mode = granted
			}
			p.completeFill(fc)
		})
}

// completeFill dispatches one completion: failures settle every stub with
// the error; successful fast-path completions publish under the shared
// lock when the cache is still in the simple state the submission
// required (own content only, no history, no parents, no remote stub
// readers — all identity fields stable under RLock); anything else goes
// through the exclusive FillUp machinery.
func (p *PVM) completeFill(fc *fillCompletion) {
	atomic.AddUint64(&p.stats.FillCompletes, 1)
	p.obs.Emit(obs.KindFillComplete, int64(fc.c.id), fc.off)
	if fc.err != nil {
		p.failFill(fc)
		return
	}
	if fc.frames != nil {
		p.mu.RLock()
		c := fc.c
		if !c.freed && !c.destroyed && c.history == nil &&
			len(c.parents) == 0 && len(c.remoteStubs) == 0 {
			p.completeFillFast(fc)
			p.mu.RUnlock()
			return
		}
		p.mu.RUnlock()
	}
	p.completeFillSlow(fc)
}

// freeFillFrames returns a fill's submit-time frames to the allocator
// and drops them from the in-flight count; p.mu held in either mode.
func (p *PVM) freeFillFrames(fc *fillCompletion) {
	for _, f := range fc.frames {
		p.mem.Free(f)
	}
	atomic.AddInt64(&p.inFlightFrames, -int64(len(fc.frames)))
	fc.frames = nil
}

// failFill frees the fill's frames and settles every stub, stamping the
// error so the parked submitter reports it; waiters that merely blocked
// on a stub retry their fault and re-derive the outcome. Runs under
// RLock plus one shard mutex per key — valid for stubs installed by
// either tier, since a shard mutex guards its keys in both locking modes.
func (p *PVM) failFill(fc *fillCompletion) {
	p.mu.RLock()
	p.freeFillFrames(fc)
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
	p.mu.RUnlock()
}

// completeFillFast publishes a successful cluster under p.mu.RLock, one
// shard mutex at a time, in reverse order so the primary stub settles
// last (waiters wake to a fully resident cluster). Each page lands in
// the frame it was read into; only a driver that returned bytes instead
// of filling Dst costs a copy. afterResident would be a no-op in the
// state completeFill verified, so it is skipped, exactly as in
// fastZeroFill.
func (p *PVM) completeFillFast(fc *fillCompletion) {
	c := fc.c
	for i := fc.count - 1; i >= 0; i-- {
		off := fc.off + int64(i)*p.pageSize
		stub := fc.stubs[i]
		key := pageKey{c, off}
		sh := p.shardOf(key)
		f := fc.frames[i]
		if fc.data != nil {
			chunk := fillChunk(fc.data, i, p.pageSize)
			if int64(len(chunk)) < p.pageSize {
				p.mem.Zero(f)
			}
			copy(f.Data, chunk)
		}
		// The cost model charges the paper's fillUp copy, which the
		// simulated kernel makes whether or not this one does.
		p.clock.Charge(cost.EvBcopyPage, 1)
		pg := &page{frame: f, off: off, granted: fc.mode}
		sh.mu.Lock()
		if sh.m[key] == mapEntry(stub) {
			delete(sh.m, key)
			p.addPage(c, pg)
		} else {
			// The key changed hands while the fill was in flight (cache
			// teardown, an explicit FillUp): whoever replaced the stub
			// owns the content now.
			p.mem.Free(f)
		}
		// The frame is resident or free before anyone wakes: a woken
		// waiter never sees it still counted in flight.
		atomic.AddInt64(&p.inFlightFrames, -1)
		p.settleStub(stub)
		sh.mu.Unlock()
	}
}

// completeFillSlow installs a successful fill through the exclusive-lock
// FillUp machinery (handles parents, history protection, remote-stub
// rethreading, competing fills), then settles anything the fill did not
// replace.
func (p *PVM) completeFillSlow(fc *fillCompletion) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fc.frames != nil {
		// installFilled reserves and fills frames of its own: take the
		// bytes out of the submit-time frames and give those back first,
		// or reserveFrames could evict for frames this fill still holds.
		if fc.data == nil {
			fc.data = make([]byte, int64(fc.count)*p.pageSize)
			for i, f := range fc.frames {
				copy(fc.data[int64(i)*p.pageSize:], f.Data)
			}
		}
		p.freeFillFrames(fc)
	}
	c := fc.c
	var firstErr error
	if c.freed && !c.reaping {
		firstErr = gmi.ErrDestroyed
	} else {
		for i := fc.count - 1; i >= 0; i-- {
			off := fc.off + int64(i)*p.pageSize
			if err := p.fillPage(c, off, fillChunk(fc.data, i, p.pageSize), fc.mode); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for i, stub := range fc.stubs {
		key := pageKey{c, fc.off + int64(i)*p.pageSize}
		if cur := p.gmapGet(key); cur == mapEntry(stub) {
			p.gmapDelete(key)
			p.clock.Charge(cost.EvGlobalMapOp, 1)
		}
		if !stub.closed {
			err := firstErr
			if err == nil {
				err = fmt.Errorf("core: pager completion did not fill (cache %p, off %#x)", c, key.off)
			}
			stub.err = err
			p.settleStub(stub)
		}
	}
}

// fillChunk returns the slice of data covering page i of a clustered
// fill; short data zero-fills the remainder (the zero-fill-beyond-EOF
// convention of FillUp).
func fillChunk(data []byte, i int, ps int64) []byte {
	lo := int64(i) * ps
	if lo >= int64(len(data)) {
		return nil
	}
	return data[lo:min64(lo+ps, int64(len(data)))]
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

// newFillRequest builds the PageRequest for a fast-path stub run,
// turning the run's frame reservations into the frames the driver reads
// into (r.Dst); called with p.mu.RLock held.
func (p *PVM) newFillRequest(c *cache, off int64, mode gmi.Prot, stubs []*syncStub, releases []func()) *gmi.PageRequest {
	fc := &fillCompletion{c: c, off: off, count: len(stubs), stubs: stubs,
		frames: p.allocFillFrames(len(stubs))}
	for _, r := range releases {
		r()
	}
	req := p.fillRequest(fc, mode)
	if fc.frames != nil {
		req.Dst = make([][]byte, len(fc.frames))
		for i, f := range fc.frames {
			req.Dst[i] = f.Data
		}
	}
	return req
}

// allocFillFrames allocates the n frames of a fast-path fill and counts
// them in flight; p.mu.RLock held, with n frames reserved. With
// promotion enabled it first tries a physically contiguous run, so a
// later fault-around pass can promote the cluster to a large
// translation (best-effort: no run, same per-page allocations). The
// reservations make allocation failure unreachable; should it happen
// anyway, the frames taken so far go back and nil is returned — the
// request then carries no Dst and completes through the slow path.
func (p *PVM) allocFillFrames(n int) []*phys.Frame {
	var frames []*phys.Frame
	if p.promote && n > 1 {
		frames = p.mem.AllocRun(n)
	}
	if frames == nil {
		frames = make([]*phys.Frame, 0, n)
		for len(frames) < n {
			f, err := p.mem.Alloc()
			if err != nil {
				for _, f := range frames {
					p.mem.Free(f)
				}
				return nil
			}
			frames = append(frames, f)
		}
	}
	atomic.AddInt64(&p.inFlightFrames, int64(n))
	return frames
}

// fastSubmitPull is the fast path's submit/complete fill: entered from
// fastFaultOnce holding p.mu.RLock and the primary key's shard mutex,
// with the key empty and the cache in the simple state (own content only).
// It installs stubs over the read-ahead cluster, submits one PageRequest,
// releases the RLock and parks on the primary stub. On success the caller
// retries the fast path, which finds the published page and maps it.
//
// With clustering enabled it also submits one speculative request for the
// next cluster, fire-and-forget: no context parks on those stubs, so the
// completion installs the pages without any faulting thread, and a
// sequential reader overlaps the next device round-trip with consuming
// the current cluster. The synchronous PullIn upcall cannot pipeline this
// way without dedicating a blocked thread to every speculation — it is
// the capability the submit/complete protocol buys.
func (p *PVM) fastSubmitPull(c *cache, off int64, key pageKey, sh *gmapShard, pager gmi.Pager, access gmi.Prot, span *obs.FaultSpan) (bool, bool, error) {
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

	stubs := []*syncStub{stub}
	releases := []func(){release}
	more, moreRel, _ := p.installStubRun(c, off+p.pageSize, p.readAhead-1)
	stubs = append(stubs, more...)
	releases = append(releases, moreRel...)

	count := len(stubs)
	mode := access | gmi.ProtRead
	req := p.newFillRequest(c, off, mode, stubs, releases)

	var spec *gmi.PageRequest
	var specOff int64
	if p.readAhead > 1 {
		specOff = off + int64(count)*p.pageSize
		sstubs, srel, starved := p.installStubRun(c, specOff, p.readAhead)
		switch {
		case starved:
			// Free frames ran out mid-install. Nobody waits on a
			// speculation, so it must not compete with demand faults for
			// the last frames (or trigger evictions to feed a guess):
			// drop the whole cluster and give the reservations back.
			p.cancelSpeculation(c, specOff, sstubs, srel)
		case len(sstubs) > 0:
			spec = p.newFillRequest(c, specOff, gmi.ProtRead, sstubs, srel)
		}
	}
	p.mu.RUnlock()

	atomic.AddUint64(&p.stats.PullIns, 1)
	atomic.AddUint64(&p.stats.FillSubmits, 1)
	p.clock.Charge(cost.EvPullIn, 1)
	span.Mark(obs.StageResolve)
	p.obs.Emit(obs.KindFillSubmit, int64(c.id), off)
	start := p.obs.Clock()
	pager.SubmitPull(req)
	if spec != nil {
		atomic.AddUint64(&p.stats.PullIns, 1)
		atomic.AddUint64(&p.stats.FillSubmits, 1)
		p.clock.Charge(cost.EvPullIn, 1)
		p.obs.Emit(obs.KindFillSubmit, int64(c.id), specOff)
		pager.SubmitPull(spec)
	}
	span.Mark(obs.StageSubmit)
	<-stub.done
	p.obs.Span(obs.KindPullIn, obs.OpPullIn, int64(c.id), off, start)
	span.Mark(obs.StageComplete)
	if stub.err != nil {
		return true, false, stub.err
	}
	return false, true, nil
}
