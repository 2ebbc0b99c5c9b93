package store

import (
	"errors"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"chorusvm/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the engine's worker goroutines, which serve
	// ReadAsync requests (speculative page-ins; demand ones use
	// ReadPages on the caller) and writeback (default 2). They start on
	// demand, up to this many, and then live until Close: an idle
	// worker parks until new work arrives.
	Workers int
	// MaxBatchPages caps how many adjacent dirty pages one backend
	// WriteAt may coalesce (default 16).
	MaxBatchPages int
	// Retry is the backoff schedule for the engine's own backend calls
	// (async reads, writeback batches, sync). Zero fields take
	// DefaultPolicy values.
	Retry Policy
	// Tracer observes store read/write/retry stages (nil disables).
	Tracer *obs.Tracer
}

// Stats is a snapshot of an engine's counters.
type Stats struct {
	Reads, ReadPages    uint64 // Read calls / pages they covered
	AsyncReads          uint64 // ReadAsync requests completed by workers
	Writes, WritePages  uint64 // Write calls / pages they enqueued
	Batches, BatchPages uint64 // backend WriteAts issued / pages in them
	Coalesced           uint64 // pages that rode along in a multi-page batch
	QueueHits           uint64 // reads served from the writeback queue
	Retries             uint64 // transient failures retried (all paths)
	WriteErrors         uint64 // writeback batches abandoned permanently
	Corruptions         uint64 // checksum mismatches detected, here or by the backend
}

// Delta returns the counter activity since an earlier snapshot.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Reads:       s.Reads - before.Reads,
		ReadPages:   s.ReadPages - before.ReadPages,
		AsyncReads:  s.AsyncReads - before.AsyncReads,
		Writes:      s.Writes - before.Writes,
		WritePages:  s.WritePages - before.WritePages,
		Batches:     s.Batches - before.Batches,
		BatchPages:  s.BatchPages - before.BatchPages,
		Coalesced:   s.Coalesced - before.Coalesced,
		QueueHits:   s.QueueHits - before.QueueHits,
		Retries:     s.Retries - before.Retries,
		WriteErrors: s.WriteErrors - before.WriteErrors,
		Corruptions: s.Corruptions - before.Corruptions,
	}
}

// Add accumulates o into s (aggregating engines for reporting).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.ReadPages += o.ReadPages
	s.AsyncReads += o.AsyncReads
	s.Writes += o.Writes
	s.WritePages += o.WritePages
	s.Batches += o.Batches
	s.BatchPages += o.BatchPages
	s.Coalesced += o.Coalesced
	s.QueueHits += o.QueueHits
	s.Retries += o.Retries
	s.WriteErrors += o.WriteErrors
	s.Corruptions += o.Corruptions
}

// Engine is the async I/O layer over a Backend. Writes enqueue full
// pages into a writeback queue drained by a bounded worker pool that
// coalesces adjacent pages into batched WriteAts; reads are served
// coherently (queue first, then the backend), and each page read from
// the backend is checksummed once: by a bare File or Flate itself,
// otherwise against the crc32 the engine recorded at write time.
// ReadPages reads straight into the caller's pages; ReadAsync hands the
// same read to the workers.
//
// Workers start on demand, up to Options.Workers, and then live until
// Close: an idle worker parks until new work arrives, so a stream of
// page-ins runs on warm goroutines instead of starting one per request.
// Whoever creates an engine owns it and must Close it; a seg.Segment
// owns its engine (DESIGN.md §8).
//
// Error model: enqueue never fails. A writeback batch that still fails
// after the retry policy is abandoned and its error latched; Err, Flush
// and every subsequent Write report it (the fsync model — writeback
// errors surface at the next durability point, not at enqueue).
type Engine struct {
	b     Backend
	ps    int64
	o     Options
	tr    *obs.Tracer
	retry atomic.Pointer[Policy] // o.Retry with the stats hook wired in

	mu       sync.Mutex
	cond     *sync.Cond       // a writeback batch finished or a worker exited
	wake     *sync.Cond       // new work or Close, for parked workers
	dirty    map[int64][]byte // pages awaiting writeback (latest content)
	inflight map[int64][]byte // pages inside a backend WriteAt right now
	reads    []asyncRead      // ReadAsync requests not yet taken
	sums     map[int64]uint32 // crc32 of every page written through us; nil for a self-checking backend
	workers  int              // workers started and not yet exited
	idle     int              // parked workers that no enqueuer has woken
	err      error            // latched permanent writeback failure
	closed   bool
	st       Stats
}

// NewEngine wraps b. The backend must outlive the engine.
func NewEngine(b Backend, o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxBatchPages <= 0 {
		o.MaxBatchPages = 16
	}
	e := &Engine{
		b:        b,
		ps:       int64(b.PageSize()),
		o:        o,
		tr:       o.Tracer,
		dirty:    make(map[int64][]byte),
		inflight: make(map[int64][]byte),
	}
	if !selfChecking(b) {
		e.sums = make(map[int64]uint32)
	}
	e.cond = sync.NewCond(&e.mu)
	e.wake = sync.NewCond(&e.mu)
	e.SetRetry(o.Retry)
	return e
}

// selfChecking reports whether b verifies every page it returns against
// a checksum it recorded at write time. Only a bare File or Flate does:
// a wrapper (Faulty, a decorator) promises no check of its own.
func selfChecking(b Backend) bool {
	switch b.(type) {
	case *File, *Flate:
		return true
	}
	return false
}

// SetTracer attaches an observability tracer; call before the engine
// starts serving I/O (nil disables, and every probe is nil-safe).
func (e *Engine) SetTracer(t *obs.Tracer) { e.tr = t }

// Backend returns the wrapped backend.
func (e *Engine) Backend() Backend { return e.b }

// PageSize returns the page size of the backend.
func (e *Engine) PageSize() int { return int(e.ps) }

// NoteRetry records one transient-failure retry in the engine's stats
// and trace stream. The seg layer funnels its upcall retries here too,
// so "retries" is one number for the whole storage tier.
func (e *Engine) NoteRetry(backoff time.Duration) {
	e.mu.Lock()
	e.st.Retries++
	e.mu.Unlock()
	e.tr.Emit(obs.KindStoreRetry, int64(backoff), 0)
	e.tr.Observe(obs.OpStoreRetry, int64(backoff))
}

// Write enqueues data for asynchronous writeback. It returns ErrClosed
// after Close, or a previously latched writeback error (so a caller
// pushing pages out learns the device is gone); the data itself is
// always accepted and stays readable through the engine until its batch
// completes — or is abandoned, after which reads see the backend's old
// content (the fsync model: a lost write surfaces as an error at the
// durability point, not as phantom data).
func (e *Engine) Write(off int64, data []byte) error {
	start := e.tr.Clock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	err := e.err
	e.st.Writes++
	werr := forEachPage(e.ps, off, int64(len(data)), func(po, b, bufOff, n int64) error {
		e.st.WritePages++
		pg := e.dirty[po]
		if pg == nil {
			pg = make([]byte, e.ps)
			if n < e.ps {
				// Partial page: start from the current content.
				if cur := e.pageLocked(po); cur != nil {
					copy(pg, cur)
				} else {
					e.mu.Unlock()
					rerr := e.retry.Load().Do(func() error { return e.b.ReadAt(po, pg) })
					e.mu.Lock()
					if rerr != nil {
						return rerr
					}
					// Re-check: a competing writer may have enqueued this
					// page while the lock was out.
					if cur := e.dirty[po]; cur != nil {
						pg = cur
					}
				}
			}
			e.dirty[po] = pg
		}
		copy(pg[b:b+n], data[bufOff:bufOff+n])
		if e.sums != nil {
			e.sums[po] = crc32.ChecksumIEEE(pg)
		}
		return nil
	})
	e.kickLocked()
	e.mu.Unlock()
	e.tr.Span(obs.KindStoreWrite, obs.OpStoreWrite, off, int64(len(data)), start)
	if werr != nil {
		return werr
	}
	return err
}

// pageLocked returns the engine's in-memory copy of the page at po, if
// any (writeback queue or in-flight batch); e.mu held.
func (e *Engine) pageLocked(po int64) []byte {
	if pg := e.dirty[po]; pg != nil {
		return pg
	}
	return e.inflight[po]
}

// Read fills buf from [off, off+len(buf)), coherently with pending
// writeback, and verifies each full page that has a recorded checksum.
// It does not retry transient backend failures — the seg upcall layer
// owns read retries — but ErrCorrupt is never retried anywhere. On
// error the contents of buf are unspecified, as with io.ReaderAt: a
// page that failed its checksum may already sit in it.
func (e *Engine) Read(off int64, buf []byte) error {
	return e.read(off, int64(len(buf)), func(bufOff, n int64) []byte { return buf[bufOff : bufOff+n] }, nil)
}

// read is Read over [off, off+size) with the destination of each chunk
// supplied by at: at(bufOff, n) is the n-byte slice that receives the
// bytes at off+bufOff. Read passes slices of one buffer; ReadAsync
// passes caller-owned pages. A non-nil retry retries each page's
// transient backend failures on its own, so a retry keeps the pages
// already read.
func (e *Engine) read(off, size int64, at func(bufOff, n int64) []byte, retry *Policy) error {
	start := e.tr.Clock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.st.Reads++
	rerr := forEachPage(e.ps, off, size, func(po, b, bufOff, n int64) error {
		e.st.ReadPages++
		dst := at(bufOff, n)
		for {
			if pg := e.dirty[po]; pg != nil {
				e.st.QueueHits++
				copy(dst, pg[b:b+n])
				return nil
			}
			if pg := e.inflight[po]; pg != nil {
				e.st.QueueHits++
				copy(dst, pg[b:b+n])
				return nil
			}
			// Backend read, lock released; one page at a time so
			// checksums can be verified on exactly the unit they were
			// recorded for. A full page is read straight into the
			// caller's buffer; only a partial one needs a page of its
			// own. A Write to this page that lands meanwhile records the
			// checksum of content the backend may not hold yet, so the
			// page is looked up again (and the slice overwritten). A
			// self-checking backend (no sums) checked the page itself,
			// and either version is a valid answer.
			sum, ok := e.sums[po]
			e.mu.Unlock()
			pg := dst
			if n < e.ps {
				pg = make([]byte, e.ps)
			}
			err := e.b.ReadAt(po, pg)
			if err != nil && retry != nil {
				err = retry.retry(err, func() error { return e.b.ReadAt(po, pg) })
			}
			e.mu.Lock()
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					e.st.Corruptions++
				}
				return err
			}
			if e.sums != nil && e.sumMovedLocked(po, sum, ok) {
				continue
			}
			if ok && crc32.ChecksumIEEE(pg) != sum {
				e.st.Corruptions++
				return corruptAt("engine", po)
			}
			if n < e.ps {
				copy(dst, pg[b:b+n])
			}
			return nil
		}
	})
	e.mu.Unlock()
	e.tr.Span(obs.KindStoreRead, obs.OpStoreRead, off, size, start)
	return rerr
}

// ReadPages reads the pages starting at the page-aligned offset off
// straight into dst — dst[i] receives page i, and every dst[i] but the
// last is exactly one page long — on the calling goroutine, retrying
// each page's transient failures with the engine's retry policy. It is
// the read a worker performs for ReadAsync, and the demand page-in of
// the pager protocol: a faulting context waits for it anyway, so it
// skips the hand-off to a worker and back. On error the contents of dst
// are unspecified, as with Read.
func (e *Engine) ReadPages(off int64, dst [][]byte) error {
	var size int64
	for i, d := range dst {
		if i < len(dst)-1 && int64(len(d)) != e.ps {
			panic("store: read destination is not a whole page")
		}
		size += int64(len(d))
	}
	return e.read(off, size, func(bufOff, n int64) []byte { return dst[bufOff/e.ps][:n] }, e.retry.Load())
}

// asyncRead is one pending ReadAsync request.
type asyncRead struct {
	off int64
	dst [][]byte
	fn  func(err error)
}

// ReadAsync queues ReadPages(off, dst) and returns immediately. A worker
// goroutine performs the read and invokes fn exactly once with the
// outcome. The engine allocates no page buffer for the request.
//
// fn runs on the worker (or, if the engine is already closed, on the
// calling goroutine). It may block on locks and may Write to this or any
// engine: Write and Read never wait for a worker, and Truncate waits only
// for backend writes already in progress. The draining calls (Barrier,
// Flush, Close) wait for workers, so they must not be made from fn or
// under a lock fn can take. The memory manager's inline fill completion
// (internal/core) relies on exactly this.
//
// The seg driver serves a speculative gmi.PageRequest with one
// ReadAsync into the request's destination frames, completing it from fn.
func (e *Engine) ReadAsync(off int64, dst [][]byte, fn func(err error)) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		fn(ErrClosed)
		return
	}
	e.reads = append(e.reads, asyncRead{off: off, dst: dst, fn: fn})
	e.kickLocked()
	e.mu.Unlock()
}

// SetRetry replaces the engine's retry policy (test hook: shrink the
// schedule so permanent-failure paths latch fast). The engine's stats
// and trace hook is wired into its OnRetry here, once, rather than on
// every backend call.
func (e *Engine) SetRetry(p Policy) {
	prev := p.OnRetry
	p.OnRetry = func(attempt int, backoff time.Duration, err error) {
		e.NoteRetry(backoff)
		if prev != nil {
			prev(attempt, backoff, err)
		}
	}
	e.retry.Store(&p)
}

// kickLocked hands newly queued work to a parked worker, or starts a
// worker while fewer than Options.Workers run; e.mu held. Every other
// worker is busy and looks at the queues again before it parks, so no
// work is stranded.
func (e *Engine) kickLocked() {
	if e.idle > 0 {
		e.idle--
		e.wake.Signal()
	} else if e.workers < e.o.Workers {
		e.workers++
		go e.worker()
	}
}

// worker serves the engine until Close: the async-read queue first
// (faulting contexts are parked on those completions), then the
// writeback queue (batching adjacent pages), parking while both are
// empty. A taken read's queue slot is cleared at once, so a parked
// worker keeps nothing of a finished request reachable: its completion
// closure leads to the whole memory manager that submitted it.
func (e *Engine) worker() {
	e.mu.Lock()
	for {
		if len(e.reads) > 0 {
			r := e.reads[0]
			e.reads[0] = asyncRead{}
			e.reads = e.reads[1:]
			e.st.AsyncReads++
			e.mu.Unlock()
			r.fn(e.ReadPages(r.off, r.dst))
			e.mu.Lock()
			continue
		}
		if base, batch := e.takeBatchLocked(); len(batch) > 0 {
			e.mu.Unlock()
			werr := e.writeBatch(base, batch)
			e.mu.Lock()
			for i := range batch {
				po := base + int64(i)*e.ps
				delete(e.inflight, po)
				if werr != nil && e.dirty[po] == nil {
					// The batch was abandoned: the backend still holds the
					// page's previous content, which is consistent with its
					// previous checksum, not the one recorded at enqueue.
					// Forget it so reads see old data rather than a false
					// corruption report. (A page re-dirtied while in flight
					// keeps its fresh sum — that write is still pending.)
					delete(e.sums, po)
				}
			}
			e.cond.Broadcast()
			continue
		}
		if e.closed {
			break
		}
		e.idle++
		e.wake.Wait()
	}
	e.workers--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// sumMovedLocked reports whether the page at po was written, or its
// batch abandoned, since its checksum was sampled as (sum, ok); e.mu held.
// A backend read spanning that change may hold either version, so it
// proves nothing about corruption.
func (e *Engine) sumMovedLocked(po int64, sum uint32, ok bool) bool {
	now, nowOK := e.sums[po]
	return now != sum || nowOK != ok
}

// takeBatchLocked moves the lowest run of adjacent dirty pages into the
// in-flight set and returns them as one contiguous buffer; e.mu held.
// A page whose previous version is still in flight is not taken: two
// workers writing the same page could land the older version last,
// leaving the backend behind the checksum recorded for the newer one.
// The worker holding the older version takes the newer on its next loop.
// Returns no pages when every dirty page waits on such a write.
func (e *Engine) takeBatchLocked() (base int64, pages [][]byte) {
	lo := int64(-1)
	for po := range e.dirty {
		if e.inflight[po] == nil && (lo < 0 || po < lo) {
			lo = po
		}
	}
	if lo < 0 {
		return 0, nil
	}
	for len(pages) < e.o.MaxBatchPages {
		po := lo + int64(len(pages))*e.ps
		pg, ok := e.dirty[po]
		if !ok || e.inflight[po] != nil {
			break
		}
		delete(e.dirty, po)
		e.inflight[po] = pg
		pages = append(pages, pg)
	}
	return lo, pages
}

// writeBatch issues one coalesced backend WriteAt with retries; a batch
// that fails permanently is abandoned and the error latched (and
// returned, so the worker can drop the stale checksums).
func (e *Engine) writeBatch(base int64, pages [][]byte) error {
	buf := make([]byte, int64(len(pages))*e.ps)
	for i, pg := range pages {
		copy(buf[int64(i)*e.ps:], pg)
	}
	start := e.tr.Clock()
	err := e.retry.Load().Do(func() error { return e.b.WriteAt(base, buf) })
	e.tr.Span(obs.KindStoreWrite, obs.OpStoreWrite, base, int64(len(buf)), start)
	e.mu.Lock()
	e.st.Batches++
	e.st.BatchPages += uint64(len(pages))
	e.st.Coalesced += uint64(len(pages) - 1)
	if err != nil {
		e.st.WriteErrors++
		if e.err == nil {
			e.err = err
		}
	}
	e.mu.Unlock()
	return err
}

// Barrier blocks until the writeback queue is fully drained (no dirty
// and no in-flight pages). It does not sync the backend.
func (e *Engine) Barrier() {
	e.mu.Lock()
	for len(e.dirty) > 0 || len(e.inflight) > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Flush drains the writeback queue, syncs the backend, and returns the
// first latched writeback error, if any (which stays latched: a device
// that ate a write is broken until someone replaces it).
func (e *Engine) Flush() error {
	e.mu.Lock()
	for len(e.dirty) > 0 || len(e.inflight) > 0 {
		e.cond.Wait()
	}
	err := e.err
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if serr := e.retry.Load().Do(func() error { return e.b.Sync() }); err == nil {
		err = serr
	}
	return err
}

// Err returns the latched permanent writeback error, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Truncate discards every page at or beyond size: queued writeback of
// those pages is dropped unwritten, batches already inside a backend
// WriteAt are waited out (so none lands after the truncation), and the
// engine's checksums for them go too; then the backend is truncated.
// Writeback below size stays queued. It never waits for a queued write
// to be taken, so it cannot wait on a worker that is busy running a
// ReadAsync completion, and a caller holding a lock such a completion
// takes may use it.
func (e *Engine) Truncate(size int64) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	for po := range e.dirty {
		if po >= size {
			delete(e.dirty, po)
		}
	}
	for e.inflightFromLocked(size) {
		e.cond.Wait()
	}
	for po := range e.sums {
		if po >= size {
			delete(e.sums, po)
		}
	}
	e.mu.Unlock()
	return e.b.Truncate(size)
}

// inflightFromLocked reports whether a page at or beyond size is inside
// a backend WriteAt right now; e.mu held.
func (e *Engine) inflightFromLocked(size int64) bool {
	for po := range e.inflight {
		if po >= size {
			return true
		}
	}
	return false
}

// Close drains writeback, stops the workers and waits until every one
// has exited (requests already queued complete first, with ErrClosed),
// then syncs and closes the backend. It returns the first error seen
// (latched writeback error, sync, or close). Close is idempotent: a
// later call also waits for the workers, and returns nil. Like Flush it
// waits for workers, so it must not be called from a ReadAsync
// completion or under a lock one can take.
func (e *Engine) Close() error {
	e.mu.Lock()
	for len(e.dirty) > 0 || len(e.inflight) > 0 {
		e.cond.Wait()
	}
	already := e.closed
	e.closed = true
	err := e.err
	e.idle = 0
	e.wake.Broadcast()
	for e.workers > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
	if already {
		return nil
	}
	if serr := e.retry.Load().Do(e.b.Sync); err == nil {
		err = serr
	}
	if cerr := e.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// StatsSnapshot returns a copy of the engine's counters.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// QueueDepth reports pending writeback pages (dirty + in flight); a
// test/monitoring hook.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.dirty) + len(e.inflight)
}
