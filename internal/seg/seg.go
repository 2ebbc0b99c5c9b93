// Package seg provides segment managers: the external servers that
// implement secondary-storage objects and answer the memory manager's
// upcalls (Table 3 of the paper). The paper's mappers live in separate
// actors reached by IPC; here they are in-process objects invoked through
// the same upcall interface, with simulated device latency charged to the
// clock (see DESIGN.md's substitution table).
//
// Since the internal/store subsystem landed, a segment's pages live in a
// pluggable store.Backend (in-memory, persistent page file, or
// compressing) behind a store.Engine that batches writeback and serves
// speculative reads on its own workers. A Segment owns its Store and the
// Store owns its engine: closing or releasing the segment stops the
// engine's workers. The mapper layer adds what the paper's mappers add:
// the upcall protocol and simulated device cost. Transient device errors
// are absorbed by the engine's per-page retries underneath, and only
// permanent failures travel up the GMI error path as gmi.ErrIO.
package seg

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/store"
)

// Store is a backing store standing in for a disk: a store.Backend
// driven through a store.Engine. One Store can back many segments (it is
// the "disk"); each Segment is a window into it. The zero-dependency
// default is the in-memory backend; NewStoreOn accepts any Backend (a
// persistent page file, a compressing store, a Faulty wrapper...).
type Store struct {
	pageSize int
	clock    *cost.Clock
	eng      *store.Engine
}

// NewStore creates an in-memory backing store with the given page size.
func NewStore(pageSize int, clock *cost.Clock) *Store {
	return NewStoreOn(store.NewMem(pageSize), clock)
}

// NewStoreOn creates a backing store over an arbitrary backend. The
// store owns the backend from here on (Close closes it).
func NewStoreOn(b store.Backend, clock *cost.Clock) *Store {
	return newStore(b, store.Options{}, clock)
}

func newStore(b store.Backend, o store.Options, clock *cost.Clock) *Store {
	s := &Store{
		pageSize: b.PageSize(),
		clock:    clock,
		eng:      store.NewEngine(b, o),
	}
	// The backstop for a store whose owner never closes it (the IPC
	// transit segment lives as long as its memory manager, which nothing
	// tears down): once the store is garbage its engine is closed, so the
	// engine's parked workers exit instead of outliving it. The workers
	// reference only the engine, never the store.
	runtime.SetFinalizer(s, func(s *Store) { _ = s.eng.Close() })
	return s
}

// Engine exposes the async I/O engine (stats, flush).
func (s *Store) Engine() *store.Engine { return s.eng }

// Backend exposes the wrapped backend.
func (s *Store) Backend() store.Backend { return s.eng.Backend() }

// SetTracer attaches an observability tracer to the I/O engine; call
// before the store starts serving I/O (nil disables).
func (s *Store) SetTracer(t *obs.Tracer) { s.eng.SetTracer(t) }

// ReadAt fills buf from the store, zero for never-written pages. The
// simulated device cost is charged per call, independent of how the
// engine serves it (writeback queue or backend).
func (s *Store) ReadAt(off int64, buf []byte) error {
	err := s.eng.Read(off, buf)
	ps := int64(s.pageSize)
	s.clock.Charge(cost.EvDiskSeek, 1)
	s.clock.Charge(cost.EvDiskRead, int((int64(len(buf))+ps-1)/ps))
	return err
}

// ReadPages reads the pages starting at off on the calling goroutine,
// page i straight into dst[i], with the engine's retries (see
// store.Engine.ReadPages). The device cost is charged as by ReadAt.
func (s *Store) ReadPages(off int64, dst [][]byte) error {
	s.chargePages(dst)
	return s.eng.ReadPages(off, dst)
}

// ReadAsync is ReadPages on an engine worker, which invokes fn with the
// outcome (see store.Engine.ReadAsync); the cost is charged at
// submission.
func (s *Store) ReadAsync(off int64, dst [][]byte, fn func(err error)) {
	s.chargePages(dst)
	s.eng.ReadAsync(off, dst, fn)
}

// chargePages charges the simulated device cost of reading into dst.
func (s *Store) chargePages(dst [][]byte) {
	var size int64
	for _, d := range dst {
		size += int64(len(d))
	}
	ps := int64(s.pageSize)
	s.clock.Charge(cost.EvDiskSeek, 1)
	s.clock.Charge(cost.EvDiskRead, int((size+ps-1)/ps))
}

// DebugWriteHook, when set, observes every store write (test diagnostics).
var DebugWriteHook func(s *Store, off int64, data []byte)

// WriteAt enqueues data for asynchronous writeback. A nil return means
// accepted, not durable; a non-nil return is a previously latched
// permanent writeback failure (see store.Engine's error model).
func (s *Store) WriteAt(off int64, data []byte) error {
	if DebugWriteHook != nil {
		DebugWriteHook(s, off, data)
	}
	err := s.eng.Write(off, data)
	ps := int64(s.pageSize)
	s.clock.Charge(cost.EvDiskSeek, 1)
	s.clock.Charge(cost.EvDiskWrite, int((int64(len(data))+ps-1)/ps))
	return err
}

// Pages returns how many distinct pages the backend holds. Pending
// writeback is drained first so the answer is exact.
func (s *Store) Pages() int {
	s.eng.Barrier()
	return s.eng.Backend().Pages()
}

// Truncate drains writeback and discards every page at or beyond size —
// the destruction path that used to leak pages in the map-based store.
func (s *Store) Truncate(size int64) error { return s.eng.Truncate(size) }

// Sync drains writeback and syncs the backend (durability point).
func (s *Store) Sync() error { return s.eng.Flush() }

// Close drains, stops the engine's workers, syncs, and closes the
// backend. A second Close returns nil.
func (s *Store) Close() error { return s.eng.Close() }

// Segment is a mapper for one secondary-storage object held in a Store.
// It answers pullIn by reading the store and calling fillUp, and pushOut
// by calling copyBack and writing the store — the protocol of section
// 5.1.2, minus the IPC transport. Transient store failures are retried
// page by page by the store's engine with bounded backoff; a failure
// that survives the retry budget is wrapped in gmi.ErrIO and travels up
// to the faulting thread.
type Segment struct {
	store *Store
	name  string
	// Grant is the access mode granted on pullIn; defaults to ProtRWX.
	// A distributed-coherence mapper would grant read-only and upgrade
	// in GetWriteAccess.
	Grant gmi.Prot

	pullIns  atomic.Uint64
	pushOuts atomic.Uint64
	upgrades atomic.Uint64

	// tr observes mapper-side service time (set before use; nil-safe).
	tr *obs.Tracer

	// alloc is the swap allocator that created the segment, nil for
	// any other; Release removes the segment from its set.
	alloc *SwapAllocator
}

var (
	_ gmi.Segment = (*Segment)(nil)
	_ gmi.Pager   = (*Segment)(nil)
)

// NewSegment creates a mapper over its own fresh in-memory store.
func NewSegment(name string, pageSize int, clock *cost.Clock) *Segment {
	return NewSegmentOn(name, store.NewMem(pageSize), clock)
}

// NewSegmentOn creates a mapper over its own Store wrapping the given
// backend. The segment owns the backend (Release/Close reach it).
func NewSegmentOn(name string, b store.Backend, clock *cost.Clock) *Segment {
	return NewSegmentWith(name, b, store.Options{}, clock)
}

// NewSegmentWith is NewSegmentOn with its store's engine built from o.
func NewSegmentWith(name string, b store.Backend, o store.Options, clock *cost.Clock) *Segment {
	return &Segment{store: newStore(b, o, clock), name: name, Grant: gmi.ProtRWX}
}

// Store exposes the backing store (tests preload content through it).
func (s *Segment) Store() *Store { return s.store }

// SetTracer attaches an observability tracer to the segment and its
// store engine. Call before the segment starts serving upcalls; a nil
// tracer (the default) disables the probes.
func (s *Segment) SetTracer(t *obs.Tracer) {
	s.tr = t
	s.store.SetTracer(t)
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// PullIn implements gmi.Segment. The KindSegPull span is the mapper-side
// service time: store read plus fillUp answer (the simulated device cost
// is charged to the clock by the store; any wall-clock device latency a
// wrapper adds shows up in the MM-side pullin span, not here). The read
// goes through the engine's per-page retry, as SubmitPull's does, so a
// retry keeps the pages already read; corruption and exhausted retries
// come back as gmi.ErrIO.
func (s *Segment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	s.pullIns.Add(1)
	start := s.tr.Clock()
	buf := make([]byte, size)
	if err := s.store.ReadPages(off, pageViews(buf, int64(s.store.pageSize))); err != nil {
		return fmt.Errorf("%w: segment %q pullIn at %#x: %w", gmi.ErrIO, s.name, off, err)
	}
	err := c.FillUp(off, buf, s.grant())
	s.tr.Span(obs.KindSegPull, obs.OpSegPull, off, size, start)
	return err
}

// SubmitPull implements gmi.Pager. A demand request is read on the
// calling goroutine and completes before SubmitPull returns — the
// paper's pullIn/fillUp round-trip, with no hand-off to a worker and
// back for a fill the faulting context waits on anyway. A speculative
// request is read by a store engine worker and completes from there, so
// read-ahead overlaps the submitter's work. Each page is read straight
// into the request's destination frame (r.Dst) and the request completes
// with nil data; a request without destinations (one re-wrapped by a
// decorator) is read into one buffer, sliced into per-page views for
// the same engine path, and completes with that buffer. The engine owns
// the transient-error retries on both paths; exhausted retries come back
// through the completion as gmi.ErrIO, exactly like PullIn.
func (s *Segment) SubmitPull(r *gmi.PageRequest) {
	s.pullIns.Add(1)
	start := s.tr.Clock()
	dst, buf := r.Dst, []byte(nil)
	if dst == nil {
		buf = make([]byte, r.Size)
		dst = pageViews(buf, int64(s.store.pageSize))
	}
	if !r.Speculative {
		s.completePull(r, buf, start, s.store.ReadPages(r.Off, dst))
		return
	}
	s.store.ReadAsync(r.Off, dst, func(err error) { s.completePull(r, buf, start, err) })
}

// completePull completes a SubmitPull request with the outcome of its
// read; buf holds the bytes of a request without destinations.
func (s *Segment) completePull(r *gmi.PageRequest, buf []byte, start int64, err error) {
	if err != nil {
		err = fmt.Errorf("%w: segment %q pullIn at %#x: %w", gmi.ErrIO, s.name, r.Off, err)
		r.Complete(nil, gmi.ProtNone, err)
		return
	}
	s.tr.Span(obs.KindSegPull, obs.OpSegPull, r.Off, r.Size, start)
	r.Complete(buf, s.grant(), nil)
}

// grant returns the access mode granted on pullIn: Grant, or ProtRWX.
func (s *Segment) grant() gmi.Prot {
	if s.Grant == 0 {
		return gmi.ProtRWX
	}
	return s.Grant
}

// pageViews slices buf into consecutive views of at most ps bytes.
func pageViews(buf []byte, ps int64) [][]byte {
	views := make([][]byte, 0, (int64(len(buf))+ps-1)/ps)
	for lo := int64(0); lo < int64(len(buf)); lo += ps {
		views = append(views, buf[lo:min(lo+ps, int64(len(buf)))])
	}
	return views
}

// GetWriteAccess implements gmi.Segment.
func (s *Segment) GetWriteAccess(c gmi.Cache, off, size int64) error {
	s.upgrades.Add(1)
	return nil
}

// PushOut implements gmi.Segment. The write enqueues into the store's
// async engine, so the error returned here is a previously latched
// permanent writeback failure — the fsync model, surfaced through the
// GMI so the pageout path learns the device is gone.
func (s *Segment) PushOut(c gmi.Cache, off, size int64) error {
	s.pushOuts.Add(1)
	start := s.tr.Clock()
	buf := make([]byte, size)
	if err := c.CopyBack(off, buf); err != nil {
		return err
	}
	if err := s.store.WriteAt(off, buf); err != nil {
		return fmt.Errorf("%w: segment %q pushOut at %#x: %w", gmi.ErrIO, s.name, off, err)
	}
	s.tr.Span(obs.KindSegPush, obs.OpSegPush, off, size, start)
	return nil
}

// PullIns returns how many pullIn upcalls the segment served.
func (s *Segment) PullIns() uint64 { return s.pullIns.Load() }

// PushOuts returns how many pushOut upcalls the segment served.
func (s *Segment) PushOuts() uint64 { return s.pushOuts.Load() }

// Upgrades returns how many getWriteAccess upcalls the segment served.
func (s *Segment) Upgrades() uint64 { return s.upgrades.Load() }

// Retries returns how many transient store failures the segment's engine
// retried, reads and writeback alike — one number for the whole storage
// tier.
func (s *Segment) Retries() uint64 { return s.store.Engine().StatsSnapshot().Retries }

// Release is the end of a unilaterally created segment: it frees every
// page backing the segment and then closes it, stopping its engine's
// workers. The memory manager calls this when it tears down a cache
// whose segment it created (segmentCreate), so neither swap pages nor
// swap workers outlive the cache. It waits for the workers, so the
// memory manager calls it with no lock held.
func (s *Segment) Release() error {
	err := s.store.Truncate(0)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if a := s.alloc; a != nil {
		a.mu.Lock()
		delete(a.segs, s)
		a.mu.Unlock()
	}
	return err
}

// Close closes the segment's store and backend, stopping its engine's
// workers. A second Close (or a Close after Release) returns nil.
func (s *Segment) Close() error { return s.store.Close() }

// SwapAllocator services segmentCreate upcalls by handing each
// unilaterally created cache (temporaries, history objects) a fresh swap
// segment — the default-mapper role of section 5.1.2. The backend each
// swap segment sits on comes from a factory, so swap can live in memory
// (default), in page files, or compressed.
type SwapAllocator struct {
	pageSize int
	clock    *cost.Clock
	factory  func(name string) (store.Backend, error)

	mu      sync.Mutex
	created int
	segs    map[*Segment]struct{} // created and not yet released
}

var _ gmi.SegmentAllocator = (*SwapAllocator)(nil)

// NewSwapAllocator creates the default mapper with in-memory swap.
func NewSwapAllocator(pageSize int, clock *cost.Clock) *SwapAllocator {
	return NewSwapAllocatorOn(pageSize, clock, nil)
}

// NewSwapAllocatorOn creates the default mapper with swap segments built
// on backends from factory (nil means in-memory).
func NewSwapAllocatorOn(pageSize int, clock *cost.Clock, factory func(name string) (store.Backend, error)) *SwapAllocator {
	if factory == nil {
		factory = func(string) (store.Backend, error) { return store.NewMem(pageSize), nil }
	}
	return &SwapAllocator{pageSize: pageSize, clock: clock, factory: factory, segs: make(map[*Segment]struct{})}
}

// SegmentCreate implements gmi.SegmentAllocator.
func (a *SwapAllocator) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	a.mu.Lock()
	a.created++
	name := fmt.Sprintf("swap-%d", a.created)
	a.mu.Unlock()
	b, err := a.factory(name)
	if err != nil {
		return nil, fmt.Errorf("%w: segmentCreate %q: %w", gmi.ErrIO, name, err)
	}
	sg := NewSegmentOn(name, b, a.clock)
	sg.alloc = a
	a.mu.Lock()
	a.segs[sg] = struct{}{}
	a.mu.Unlock()
	return sg, nil
}

// Close closes every swap segment the allocator created and its cache
// has not released, stopping their engines' workers, for an owner done
// with a memory manager whose caches were never destroyed. It returns the
// first error seen.
func (a *SwapAllocator) Close() error {
	segs := a.live()
	var first error
	for _, sg := range segs {
		if err := sg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Created returns how many swap segments have been allocated.
func (a *SwapAllocator) Created() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.created
}

// Pages sums the backing pages across the swap segments not yet
// released. A released segment held none (Release frees its pages
// first), so this is also the total over every segment ever created,
// which is what the leak regression test asserts.
func (a *SwapAllocator) Pages() int {
	total := 0
	for _, sg := range a.live() {
		total += sg.Store().Pages()
	}
	return total
}

// live snapshots the segments created and not yet released.
func (a *SwapAllocator) live() []*Segment {
	a.mu.Lock()
	defer a.mu.Unlock()
	segs := make([]*Segment, 0, len(a.segs))
	for sg := range a.segs {
		segs = append(segs, sg)
	}
	return segs
}

// ErrInjected is returned by failing test segments.
var ErrInjected = fmt.Errorf("seg: injected failure")

// FlakySegment wraps a segment, failing the first FailPullIns pull-ins,
// FailPushOuts push-outs, and FailGetWrites write-access upgrades; for
// failure-injection tests. (For probabilistic, retryable device faults
// use store.Faulty under a real segment instead — this wrapper's errors
// are permanent, not transient.)
type FlakySegment struct {
	gmi.Segment
	FailPullIns   atomic.Int64
	FailPushOuts  atomic.Int64
	FailGetWrites atomic.Int64
}

// PullIn implements gmi.Segment.
func (f *FlakySegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	if f.FailPullIns.Add(-1) >= 0 {
		return ErrInjected
	}
	return f.Segment.PullIn(c, off, size, mode)
}

// PushOut implements gmi.Segment.
func (f *FlakySegment) PushOut(c gmi.Cache, off, size int64) error {
	if f.FailPushOuts.Add(-1) >= 0 {
		return ErrInjected
	}
	return f.Segment.PushOut(c, off, size)
}

// GetWriteAccess implements gmi.Segment.
func (f *FlakySegment) GetWriteAccess(c gmi.Cache, off, size int64) error {
	if f.FailGetWrites.Add(-1) >= 0 {
		return ErrInjected
	}
	return f.Segment.GetWriteAccess(c, off, size)
}

// FlakyAllocator wraps a segment allocator, failing the first
// FailCreates segmentCreate upcalls; for failure-injection tests of the
// swap-assignment path.
type FlakyAllocator struct {
	gmi.SegmentAllocator
	FailCreates atomic.Int64
}

// SegmentCreate implements gmi.SegmentAllocator.
func (f *FlakyAllocator) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	if f.FailCreates.Add(-1) >= 0 {
		return nil, ErrInjected
	}
	return f.SegmentAllocator.SegmentCreate(c)
}
