package store

import (
	"hash/crc32"
	"sync"
	"time"

	"chorusvm/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the concurrent writeback/prefetch goroutines
	// (default 2). Workers are spawned on demand and exit when the queue
	// drains, so an idle engine holds no goroutines.
	Workers int
	// MaxBatchPages caps how many adjacent dirty pages one backend
	// WriteAt may coalesce (default 16).
	MaxBatchPages int
	// ReadAhead is how many pages the prefetcher pulls after a
	// sequential read is detected (0 means the default of 4; negative
	// disables).
	ReadAhead int
	// PrefetchCap bounds the pages parked by the prefetcher (default 64,
	// FIFO eviction).
	PrefetchCap int
	// Retry is the backoff schedule for the engine's own backend calls
	// (writeback batches, prefetch reads, sync). Zero fields take
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
	Prefetches          uint64 // pages speculatively read by the prefetcher
	PrefetchHits        uint64 // reads served from prefetched pages
	QueueHits           uint64 // reads served from the writeback queue
	Retries             uint64 // transient failures retried (all paths)
	WriteErrors         uint64 // writeback batches abandoned permanently
	Corruptions         uint64 // checksum mismatches detected
}

// Delta returns the counter activity since an earlier snapshot.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Reads:        s.Reads - before.Reads,
		ReadPages:    s.ReadPages - before.ReadPages,
		AsyncReads:   s.AsyncReads - before.AsyncReads,
		Writes:       s.Writes - before.Writes,
		WritePages:   s.WritePages - before.WritePages,
		Batches:      s.Batches - before.Batches,
		BatchPages:   s.BatchPages - before.BatchPages,
		Coalesced:    s.Coalesced - before.Coalesced,
		Prefetches:   s.Prefetches - before.Prefetches,
		PrefetchHits: s.PrefetchHits - before.PrefetchHits,
		QueueHits:    s.QueueHits - before.QueueHits,
		Retries:      s.Retries - before.Retries,
		WriteErrors:  s.WriteErrors - before.WriteErrors,
		Corruptions:  s.Corruptions - before.Corruptions,
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
	s.Prefetches += o.Prefetches
	s.PrefetchHits += o.PrefetchHits
	s.QueueHits += o.QueueHits
	s.Retries += o.Retries
	s.WriteErrors += o.WriteErrors
	s.Corruptions += o.Corruptions
}

// Engine is the async I/O layer over a Backend. Writes enqueue full
// pages into a writeback queue drained by a bounded worker pool that
// coalesces adjacent pages into batched WriteAts; reads are served
// coherently (queue first, then prefetch cache, then the backend) and
// verified against per-page checksums recorded at write time; a
// sequential read stream triggers speculative readahead so the next
// pullIn finds its page already in memory.
//
// Error model: enqueue never fails. A writeback batch that still fails
// after the retry policy is abandoned and its error latched; Err, Flush
// and every subsequent Write report it (the fsync model — writeback
// errors surface at the next durability point, not at enqueue).
type Engine struct {
	b  Backend
	ps int64
	o  Options
	tr *obs.Tracer

	mu       sync.Mutex
	cond     *sync.Cond
	dirty    map[int64][]byte // pages awaiting writeback (latest content)
	inflight map[int64][]byte // pages inside a backend WriteAt right now
	pf       map[int64][]byte // prefetched pages
	pfOrder  []int64          // FIFO order of pf
	pfQueue  []int64          // prefetch requests not yet taken
	reads    []asyncRead      // ReadAsync requests not yet taken
	sums     map[int64]uint32 // crc32 of every page written through us
	workers  int
	err      error // latched permanent writeback failure
	closed   bool
	nextSeq  int64 // next page offset that would continue a sequential read
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
	if o.ReadAhead < 0 {
		o.ReadAhead = 0
	} else if o.ReadAhead == 0 {
		o.ReadAhead = 4
	}
	if o.PrefetchCap <= 0 {
		o.PrefetchCap = 64
	}
	e := &Engine{
		b:        b,
		ps:       int64(b.PageSize()),
		o:        o,
		tr:       o.Tracer,
		dirty:    make(map[int64][]byte),
		inflight: make(map[int64][]byte),
		pf:       make(map[int64][]byte),
		sums:     make(map[int64]uint32),
		nextSeq:  -1,
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// SetTracer attaches an observability tracer; call before the engine
// starts serving I/O (nil disables, and every probe is nil-safe).
func (e *Engine) SetTracer(t *obs.Tracer) { e.tr = t }

// Backend returns the wrapped backend.
func (e *Engine) Backend() Backend { return e.b }

// PageSize returns the page size of the backend.
func (e *Engine) PageSize() int { return int(e.ps) }

// retryPolicy returns the engine's policy with stats/tracing wired into
// the OnRetry hook. Called with e.mu released (every user runs the
// policy outside the lock); the copy is taken under it so SetRetry can
// swap schedules race-free.
func (e *Engine) retryPolicy() Policy {
	e.mu.Lock()
	p := e.o.Retry
	e.mu.Unlock()
	prev := p.OnRetry
	p.OnRetry = func(attempt int, backoff time.Duration, err error) {
		e.NoteRetry(backoff)
		if prev != nil {
			prev(attempt, backoff, err)
		}
	}
	return p
}

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
					rerr := e.retryPolicy().Do(func() error { return e.b.ReadAt(po, pg) })
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
		e.sums[po] = crc32.ChecksumIEEE(pg)
		// Invalidate any prefetched copy: once this page's batch drains,
		// a park from before this write would serve stale content.
		delete(e.pf, po)
		return nil
	})
	e.spawnLocked()
	e.mu.Unlock()
	e.tr.Span(obs.KindStoreWrite, obs.OpStoreWrite, off, int64(len(data)), start)
	if werr != nil {
		return werr
	}
	return err
}

// pageLocked returns the engine's in-memory copy of the page at po, if
// any (writeback queue, in-flight batch, or prefetch cache); e.mu held.
func (e *Engine) pageLocked(po int64) []byte {
	if pg := e.dirty[po]; pg != nil {
		return pg
	}
	if pg := e.inflight[po]; pg != nil {
		return pg
	}
	return e.pf[po]
}

// Read fills buf from [off, off+len(buf)), coherently with pending
// writeback, and verifies each full page that has a recorded checksum.
// It does not retry transient backend failures — the seg upcall layer
// owns read retries — but ErrCorrupt is never retried anywhere. On
// error the contents of buf are unspecified, as with io.ReaderAt: a
// page that failed its checksum may already sit in it.
func (e *Engine) Read(off int64, buf []byte) error {
	return e.read(off, int64(len(buf)), func(bufOff, n int64) []byte { return buf[bufOff : bufOff+n] })
}

// read is Read over [off, off+size) with the destination of each chunk
// supplied by at: at(bufOff, n) is the n-byte slice that receives the
// bytes at off+bufOff. Read passes slices of one buffer; ReadAsync
// passes caller-owned pages.
func (e *Engine) read(off, size int64, at func(bufOff, n int64) []byte) error {
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
			if pg := e.pf[po]; pg != nil {
				e.st.PrefetchHits++
				copy(dst, pg[b:b+n])
				return nil
			}
			// Backend read, lock released; one page at a time so
			// checksums can be verified on exactly the unit they were
			// recorded for. A full page is read straight into the
			// caller's buffer; only a partial one needs a page of its
			// own. A Write to this page that lands meanwhile records the
			// checksum of content the backend may not hold yet, so the
			// page is looked up again (and the slice overwritten).
			sum, ok := e.sums[po]
			e.mu.Unlock()
			pg := dst
			if n < e.ps {
				pg = make([]byte, e.ps)
			}
			err := e.b.ReadAt(po, pg)
			e.mu.Lock()
			if err != nil {
				return err
			}
			if e.sumMovedLocked(po, sum, ok) {
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
	// Sequential readahead: a read continuing where the last one ended
	// queues the next ReadAhead pages for the worker pool.
	if rerr == nil && e.o.ReadAhead > 0 {
		first := off &^ (e.ps - 1)
		end := (off + size + e.ps - 1) &^ (e.ps - 1)
		if first == e.nextSeq {
			for i := 0; i < e.o.ReadAhead; i++ {
				e.pfQueue = append(e.pfQueue, end+int64(i)*e.ps)
			}
			e.spawnLocked()
		}
		e.nextSeq = end
	}
	e.mu.Unlock()
	e.tr.Span(obs.KindStoreRead, obs.OpStoreRead, off, size, start)
	return rerr
}

// asyncRead is one pending ReadAsync request.
type asyncRead struct {
	off  int64
	dst  [][]byte
	size int64
	fn   func(err error)
}

// ReadAsync queues a coherent read of the pages starting at the
// page-aligned offset off into dst — dst[i] receives page i, and every
// dst[i] but the last is exactly one page long — and returns
// immediately. A worker goroutine performs the read, straight into dst,
// with the engine's retry policy (there is no caller left to retry), and
// invokes fn exactly once with the outcome; on error the contents of dst
// are unspecified, as with Read. The engine allocates no page buffer for
// the request.
//
// fn runs on the worker (or, if the engine is already closed, on the
// calling goroutine). It may block on locks and may Write to this or any
// engine: Write and Read never wait for a worker, and Truncate waits only
// for backend writes already in progress. The draining calls (Barrier,
// Flush, Close) wait for workers, so they must not be made from fn or
// under a lock fn can take. The memory manager's inline fill completion
// (internal/core) relies on exactly this.
//
// This is the device half of the pager submit/complete protocol: the seg
// driver turns a gmi.PageRequest into one ReadAsync, reading into the
// request's destination frames, and completes the request from fn.
func (e *Engine) ReadAsync(off int64, dst [][]byte, fn func(err error)) {
	var size int64
	for i, d := range dst {
		if i < len(dst)-1 && int64(len(d)) != e.ps {
			panic("store: ReadAsync destination is not a whole page")
		}
		size += int64(len(d))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		fn(ErrClosed)
		return
	}
	e.reads = append(e.reads, asyncRead{off: off, dst: dst, size: size, fn: fn})
	e.spawnLocked()
	e.mu.Unlock()
}

// SetRetry replaces the engine's retry policy (test hook: shrink the
// schedule so permanent-failure paths latch fast).
func (e *Engine) SetRetry(p Policy) {
	e.mu.Lock()
	e.o.Retry = p
	e.mu.Unlock()
}

// Prefetch queues n pages starting at the page containing off for
// speculative read into the engine's cache.
func (e *Engine) Prefetch(off int64, n int) {
	e.mu.Lock()
	if !e.closed {
		po := off &^ (e.ps - 1)
		for i := 0; i < n; i++ {
			e.pfQueue = append(e.pfQueue, po+int64(i)*e.ps)
		}
		e.spawnLocked()
	}
	e.mu.Unlock()
}

// spawnLocked starts a worker if there is work and capacity; e.mu held.
func (e *Engine) spawnLocked() {
	if e.workers < e.o.Workers && (len(e.reads) > 0 || len(e.dirty) > 0 || len(e.pfQueue) > 0) {
		e.workers++
		go e.worker()
	}
}

// worker drains the async-read queue first (faulting contexts are parked
// on those completions), then the writeback queue (batching adjacent
// pages), then the prefetch queue, exiting when all are empty. Exit and
// queue insertion both happen under e.mu, so work enqueued concurrently
// is never stranded: either this worker sees it on its next loop, or the
// enqueuer's spawnLocked starts a fresh one.
func (e *Engine) worker() {
	e.mu.Lock()
	for {
		if len(e.reads) > 0 {
			r := e.reads[0]
			e.reads = e.reads[1:]
			e.st.AsyncReads++
			e.mu.Unlock()
			err := e.retryPolicy().Do(func() error {
				return e.read(r.off, r.size, func(bufOff, n int64) []byte { return r.dst[bufOff/e.ps][:n] })
			})
			r.fn(err)
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
		if len(e.pfQueue) > 0 {
			po := e.pfQueue[0]
			e.pfQueue = e.pfQueue[1:]
			if e.pageLocked(po) != nil {
				continue // already in memory in some form
			}
			sum, ok := e.sums[po]
			e.mu.Unlock()
			pg := make([]byte, e.ps)
			err := e.retryPolicy().Do(func() error { return e.b.ReadAt(po, pg) })
			e.mu.Lock()
			e.st.Prefetches++
			if err == nil {
				if e.sumMovedLocked(po, sum, ok) {
					continue // raced a Write: the page is in the queue now
				}
				if ok && crc32.ChecksumIEEE(pg) != sum {
					e.st.Corruptions++
					continue // never park corrupt data; the read path re-detects
				}
				e.pfInsertLocked(po, pg)
			}
			continue
		}
		break
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
	err := e.retryPolicy().Do(func() error { return e.b.WriteAt(base, buf) })
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
	if serr := e.retryPolicy().Do(func() error { return e.b.Sync() }); err == nil {
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
// engine's state for them (checksums, prefetched pages) goes too; then
// the backend is truncated. Writeback below size stays queued. It never
// waits for a queued write to be taken, so it cannot wait on a worker
// that is busy running a ReadAsync completion — the memory manager
// releases a dead cache's swap segment this way while holding its
// structural lock.
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
	for po := range e.pf {
		if po >= size {
			delete(e.pf, po)
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

// Close drains writeback, closes the backend, and marks the engine
// closed. Returns the first error seen (latched writeback error, sync,
// or close).
func (e *Engine) Close() error {
	err := e.Flush()
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if already {
		return ErrClosed
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

// pfInsertLocked parks a prefetched page, evicting FIFO at capacity;
// e.mu held.
func (e *Engine) pfInsertLocked(po int64, pg []byte) {
	if _, ok := e.pf[po]; ok {
		return
	}
	for len(e.pf) >= e.o.PrefetchCap && len(e.pfOrder) > 0 {
		old := e.pfOrder[0]
		e.pfOrder = e.pfOrder[1:]
		delete(e.pf, old)
	}
	e.pf[po] = pg
	e.pfOrder = append(e.pfOrder, po)
}

// QueueDepth reports pending writeback pages (dirty + in flight); a
// test/monitoring hook.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.dirty) + len(e.inflight)
}
