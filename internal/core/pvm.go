// Package core implements the PVM — the Paged Virtual memory Manager of
// Abrossimov, Rozier and Shapiro (SOSP'89) — a demand-paged implementation
// of the Generic Memory-management Interface (internal/gmi).
//
// The PVM is characterized by (section 4 of the paper):
//
//   - support for large, sparse segments and address spaces: the size of
//     every management structure depends on resident memory, never on
//     virtual sizes;
//   - efficient deferred copy with two techniques: history objects for
//     large copies (section 4.2) and per-virtual-page copy-on-write stubs
//     for small ones (section 4.3);
//   - a small machine-dependent layer (internal/mmu) under a
//     hardware-independent interface.
//
// Layout of this package:
//
//	pvm.go       PVM object, options, gmi.MemoryManager implementation
//	page.go      real-page descriptors, stubs, the global map
//	cache.go     local-cache descriptors, parent fragments, page lists
//	context.go   contexts and regions; the simulated load/store path
//	fault.go     page-fault handling (section 4.1.2) and COW breaking
//	history.go   history trees: attach, working objects, splice, collapse
//	copy.go      cache.copy/move: history path, per-page-stub path, bcopy
//	cacheops.go  fillUp/copyBack/flush/sync/invalidate/lock/destroy
//	pageout.go   frame reservation, eviction, pushOut protocol
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mmu"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
	"chorusvm/internal/policy"
)

// Options configures a PVM instance.
type Options struct {
	// Frames is the number of physical page frames (default 1024, i.e.
	// the paper's 8 MB at 8 KB pages).
	Frames int
	// PageSize in bytes (default 8192, the Sun-3/60's).
	PageSize int
	// MMU selects the machine-dependent flavour: "sun3" (two-level,
	// default), "pmmu" (inverted) or "i386" (flat).
	MMU string
	// Clock is the simulated clock; default cost.New().
	Clock *cost.Clock
	// SegAlloc services segmentCreate upcalls for unilaterally created
	// caches (temporaries, histories) at first push-out. Optional; when
	// nil such caches cannot be paged out.
	SegAlloc gmi.SegmentAllocator
	// SmallCopyPages is the threshold below or at which Copy uses
	// per-virtual-page stubs instead of history objects (default 4
	// pages, i.e. IPC-message-sized transfers). Negative disables the
	// per-page technique entirely, as in the paper's measured system
	// (its per-page path was "not fully operational", section 5.2).
	SmallCopyPages int
	// ReadAheadPages clusters each pullIn over up to this many contiguous
	// pages (default 1: no read-ahead), amortizing the segment's
	// positioning cost for sequential workloads.
	ReadAheadPages int
	// CopyOnReference makes deferred copies materialize private pages on
	// any access, not just writes (section 4.2.2's copy-on-reference
	// policy). Default false: copy-on-write.
	CopyOnReference bool
	// DisableCollapse turns off the working-object collapse garbage
	// collection (the section 4.2.5 extension), for ablation.
	DisableCollapse bool
	// FaultAroundPages, when >= 2, makes a fault that finds its page
	// already resident also map that page's resident neighbours from the
	// same naturally-aligned cluster — one shard trip, one batched MMU
	// update — so a sequential reader over resident pages takes one fault
	// per cluster instead of one per page. Clamped to [0, 8] (the
	// global-map shard cluster width) and rounded down to a power of two;
	// values below 2 disable it. Default 0: off, which keeps the paper's
	// Table 6/7 simulation at strict one-page-per-fault behaviour.
	FaultAroundPages int
	// Tracer, when non-nil, receives trace events and latency
	// observations from every layer (see internal/obs). The nil default
	// costs one predictable branch per probe site and zero allocations.
	Tracer *obs.Tracer
}

func (o *Options) fill() {
	if o.Frames == 0 {
		o.Frames = 1024
	}
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.MMU == "" {
		o.MMU = "sun3"
	}
	if o.Clock == nil {
		o.Clock = cost.New()
	}
	if o.SmallCopyPages == 0 {
		o.SmallCopyPages = 4
	}
	if o.SmallCopyPages < 0 {
		o.SmallCopyPages = 0
	}
	if o.ReadAheadPages < 1 {
		o.ReadAheadPages = 1
	}
	if o.FaultAroundPages < 0 {
		o.FaultAroundPages = 0
	}
	if o.FaultAroundPages > faultAroundMax {
		o.FaultAroundPages = faultAroundMax
	}
	for o.FaultAroundPages&(o.FaultAroundPages-1) != 0 {
		o.FaultAroundPages &= o.FaultAroundPages - 1 // round down to a power of two
	}
	if o.FaultAroundPages < 2 {
		o.FaultAroundPages = 0
	}
}

// Stats are PVM-internal counters, complementing the clock's event counts.
// Fields are updated with atomic operations (the fast fault path counts
// without the structural lock); read them through Stats().
type Stats struct {
	// Snapshot semantics: Stats() assembles the copy one atomic load at a
	// time, under no lock, so while the system is running the copy is not
	// a single consistent cut — each field is exact at the instant it was
	// read, but related counters can disagree transiently (e.g. a fault
	// counted in Faults whose ZeroFills increment lands after the
	// snapshot). Counters are monotonic, so differencing two snapshots
	// with Delta still bounds the activity in between.

	Faults        uint64 // page faults handled
	SoftFaults    uint64 // of Faults: page already resident, only a mapping was needed
	SegvFaults    uint64 // faults outside any region
	ProtFaults    uint64 // accesses denied by protection
	ZeroFills     uint64 // demand-zero pages materialized
	CowBreaks     uint64 // private pages materialized by deferred copies
	HistoryPushes uint64 // original pages preserved into history objects
	StubBreaks    uint64 // per-page stubs resolved by copying
	PullIns       uint64 // fill requests submitted to segments (one per pullIn, whatever the driver)
	FillSubmits   uint64 // async fill requests submitted to pagers
	FillCompletes uint64 // pager completions processed (inline, on the completing goroutine)
	PushOuts      uint64 // pushOut upcalls issued
	AsyncBatches  uint64 // reclaim passes that pushed out two or more dirty victims concurrently
	Evictions     uint64 // frames reclaimed by page-out
	Collapses     uint64 // working objects collapsed
	Zombies       uint64 // caches kept as zombies for their descendants

	// Extent (multi-page) counters: fault-around and speculative
	// read-ahead.
	FaultAroundMapped     uint64 // resident neighbours mapped by fault-around
	SpeculationsCancelled uint64 // speculative fills dropped under frame pressure

	// Frame-allocator counters, mirrored from phys.Memory.
	// MagazineRefills always reads 0: the allocator is one free list
	// with no per-CPU magazines to refill. It stays because the
	// repository benchmark reports it (phys.magazine_refills_per_kop).
	MagazineRefills uint64
	BatchFrees      uint64 // FreeBatch calls of more than one frame

	// Replacement-policy counters. The last two are mirrored from the
	// replacement order's own counters (internal/policy), like the
	// frame-allocator counters above.
	PolicyHarvests      uint64 // referenced-bit harvest ticks performed
	PolicySecondChances uint64 // main-queue victims spared by a set reference bit
	PolicyPromotions    uint64 // admission-queue pages promoted on reuse
}

// PVM is a Paged Virtual memory Manager. It implements
// gmi.MemoryManager; its caches, contexts and regions implement the
// corresponding GMI interfaces.
type PVM struct {
	clock     *cost.Clock
	mem       *phys.Memory
	hw        mmu.MMU
	segalloc  gmi.SegmentAllocator
	pageSize  int64
	pageMask  int64
	smallMax  int64 // byte threshold for the per-page-stub copy path
	readAhead int   // pullIn cluster size in pages
	copyOnRef bool
	collapse  bool

	// Extent configuration: faultAround is the cluster width in pages (0
	// off, else a power of two in [2, faultAroundMax]); clusterShift
	// aligns the global-map shard hash so one cluster's keys share one
	// shard (see shardOf).
	faultAround  int
	clusterShift uint

	// mu is the structural lock. Held exclusively (mu.Lock) it is the
	// paper's "simple synchronization interface provided by the host
	// kernel": one lock over all PVM structures, used by every structural
	// operation (cache/context/region create and destroy, history-tree
	// surgery, copies, page-out) and by the slow fault path. The fast
	// fault path holds it shared (mu.RLock) plus one global-map shard
	// mutex, so independent faults proceed in parallel; see fault.go for
	// the full protocol and lock ordering. Upcalls (pullIn/pushOut/
	// segmentCreate) are always issued with no PVM lock held; in-transit
	// fragments are represented by stubs in the global map so concurrent
	// access blocks on the fragment, not on a lock.
	mu     sync.RWMutex
	shards [gmapShards]gmapShard // the lock-striped global map

	// released holds the segments of caches freed under mu that the
	// PVM created itself (segmentCreate); unlock releases them once mu
	// is dropped. Guarded by mu.
	released []gmi.Segment

	// pol is the page-replacement order (2Q, internal/policy). It guards
	// its queues with its own internal mutex (a touch is a lock-free
	// reference bit), a leaf ordered strictly after mu/shard locks like
	// the others. Set once in New.
	pol *policy.TwoQ

	// Leaf mutexes, ordered strictly after mu/shard locks: reserveMu
	// guards the frame-reservation count. Per-cache (listMu) and
	// per-context (spaceMu) leaves live on those structs.
	reserveMu sync.Mutex
	reserved  int // frames promised to in-flight fault handling

	caches      map[*cache]struct{}
	contexts    map[*context]struct{}
	current     *context
	nextCacheID uint64
	// inFlightFrames counts frames allocated but not yet published in any
	// page list: content being filled outside the lock, and the frames
	// fast-path pager fills own from submit to completion (submit.go).
	// The frame accounting invariant includes them.
	inFlightFrames int64
	stats          Stats

	// obs receives trace events and latency observations; nil when the
	// PVM is not instrumented (every probe is nil-safe).
	obs *obs.Tracer
}

var _ gmi.MemoryManager = (*PVM)(nil)

// New creates a PVM.
func New(o Options) *PVM {
	o.fill()
	p := &PVM{
		clock:       o.Clock,
		segalloc:    o.SegAlloc,
		pageSize:    int64(o.PageSize),
		pageMask:    int64(o.PageSize) - 1,
		smallMax:    int64(o.SmallCopyPages) * int64(o.PageSize),
		readAhead:   o.ReadAheadPages,
		copyOnRef:   o.CopyOnReference,
		collapse:    !o.DisableCollapse,
		faultAround: o.FaultAroundPages,
		caches:      make(map[*cache]struct{}),
		contexts:    make(map[*context]struct{}),
		pol:         policy.NewTwoQ(),
		obs:         o.Tracer,
	}
	for ps := int64(o.PageSize); ps > 1; ps >>= 1 {
		p.clusterShift++
	}
	p.clusterShift += faultAroundShift
	for i := range p.shards {
		p.shards[i].m = make(map[pageKey]mapEntry)
	}
	p.mem = phys.NewMemory(o.Frames, o.PageSize, o.Clock)
	switch o.MMU {
	case "sun3":
		p.hw = mmu.NewTwoLevel(o.PageSize, o.Clock)
	case "pmmu":
		p.hw = mmu.NewInverted(o.PageSize, o.Frames*2, o.Clock)
	case "i386":
		p.hw = mmu.NewFlat(o.PageSize, o.Clock)
	default:
		panic(fmt.Sprintf("core: unknown MMU flavour %q", o.MMU))
	}
	return p
}

// Name implements gmi.MemoryManager.
func (p *PVM) Name() string { return "pvm" }

// unlock drops p.mu, held exclusively, and then releases the segments
// of the caches freed under it (see freeCache). Releasing a segment
// waits for its engine's workers, and a worker may be running a fill
// completion that takes p.mu, so it is never done under the lock.
// Operations that can free a cache unlock this way. Fill completions
// (on the faulter or a driver goroutine) call p.mu.Unlock instead: a
// segment freed by one waits for the next operation's unlock.
func (p *PVM) unlock() {
	segs := p.released
	if len(segs) > 0 {
		p.released = nil
	}
	p.mu.Unlock()
	for _, s := range segs {
		if r, ok := s.(interface{ Release() error }); ok {
			_ = r.Release() // best effort: the cache is gone either way
		}
	}
}

// SetSegmentAllocator installs (or replaces) the default mapper that
// services segmentCreate upcalls. Tools use it to pick the swap backend
// (in-memory, page file, compressing) after constructing the PVM.
func (p *PVM) SetSegmentAllocator(a gmi.SegmentAllocator) {
	p.mu.Lock()
	p.segalloc = a
	p.mu.Unlock()
}

// PageSize implements gmi.MemoryManager.
func (p *PVM) PageSize() int { return int(p.pageSize) }

// Clock returns the simulated clock.
func (p *PVM) Clock() *cost.Clock { return p.clock }

// Tracer returns the observability tracer (nil when uninstrumented).
func (p *PVM) Tracer() *obs.Tracer { return p.obs }

// Memory returns the physical memory pool (for tests and tools).
func (p *PVM) Memory() *phys.Memory { return p.mem }

// MMU returns the machine-dependent layer in use.
func (p *PVM) MMU() mmu.MMU { return p.hw }

// Delta returns s - prev, field by field. Counters are monotonic, so on
// two snapshots of the same PVM taken in order the result never
// underflows; it is the activity between the snapshots (subject to the
// per-field consistency caveat documented on Stats).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Faults:        s.Faults - prev.Faults,
		SoftFaults:    s.SoftFaults - prev.SoftFaults,
		SegvFaults:    s.SegvFaults - prev.SegvFaults,
		ProtFaults:    s.ProtFaults - prev.ProtFaults,
		ZeroFills:     s.ZeroFills - prev.ZeroFills,
		CowBreaks:     s.CowBreaks - prev.CowBreaks,
		HistoryPushes: s.HistoryPushes - prev.HistoryPushes,
		StubBreaks:    s.StubBreaks - prev.StubBreaks,
		PullIns:       s.PullIns - prev.PullIns,
		FillSubmits:   s.FillSubmits - prev.FillSubmits,
		FillCompletes: s.FillCompletes - prev.FillCompletes,
		PushOuts:      s.PushOuts - prev.PushOuts,
		AsyncBatches:  s.AsyncBatches - prev.AsyncBatches,
		Evictions:     s.Evictions - prev.Evictions,
		Collapses:     s.Collapses - prev.Collapses,
		Zombies:       s.Zombies - prev.Zombies,

		FaultAroundMapped:     s.FaultAroundMapped - prev.FaultAroundMapped,
		SpeculationsCancelled: s.SpeculationsCancelled - prev.SpeculationsCancelled,

		MagazineRefills: s.MagazineRefills - prev.MagazineRefills,
		BatchFrees:      s.BatchFrees - prev.BatchFrees,

		PolicyHarvests:      s.PolicyHarvests - prev.PolicyHarvests,
		PolicySecondChances: s.PolicySecondChances - prev.PolicySecondChances,
		PolicyPromotions:    s.PolicyPromotions - prev.PolicyPromotions,
	}
}

// Stats returns a copy of the internal counters. See the snapshot
// semantics documented on the Stats type: the copy is assembled
// field-by-field and is not one consistent cut while the PVM is active.
func (p *PVM) Stats() Stats {
	s := &p.stats
	ps := p.pol.Stats()
	return Stats{
		Faults:        atomic.LoadUint64(&s.Faults),
		SoftFaults:    atomic.LoadUint64(&s.SoftFaults),
		SegvFaults:    atomic.LoadUint64(&s.SegvFaults),
		ProtFaults:    atomic.LoadUint64(&s.ProtFaults),
		ZeroFills:     atomic.LoadUint64(&s.ZeroFills),
		CowBreaks:     atomic.LoadUint64(&s.CowBreaks),
		HistoryPushes: atomic.LoadUint64(&s.HistoryPushes),
		StubBreaks:    atomic.LoadUint64(&s.StubBreaks),
		PullIns:       atomic.LoadUint64(&s.PullIns),
		FillSubmits:   atomic.LoadUint64(&s.FillSubmits),
		FillCompletes: atomic.LoadUint64(&s.FillCompletes),
		PushOuts:      atomic.LoadUint64(&s.PushOuts),
		AsyncBatches:  atomic.LoadUint64(&s.AsyncBatches),
		Evictions:     atomic.LoadUint64(&s.Evictions),
		Collapses:     atomic.LoadUint64(&s.Collapses),
		Zombies:       atomic.LoadUint64(&s.Zombies),

		FaultAroundMapped:     atomic.LoadUint64(&s.FaultAroundMapped),
		SpeculationsCancelled: atomic.LoadUint64(&s.SpeculationsCancelled),

		BatchFrees: p.mem.BatchFrees(),

		PolicyHarvests:      atomic.LoadUint64(&s.PolicyHarvests),
		PolicySecondChances: ps.SecondChances,
		PolicyPromotions:    ps.Promotions,
	}
}

// CacheCreate implements gmi.MemoryManager: it binds seg to a new cache.
func (p *PVM) CacheCreate(seg gmi.Segment) gmi.Cache {
	p.mu.Lock()
	defer p.unlock()
	return p.newCache(seg, false)
}

// TempCacheCreate implements gmi.MemoryManager: a zero-filled temporary
// cache; a swap segment is assigned via the SegmentAllocator on first
// push-out (section 5.1.2).
func (p *PVM) TempCacheCreate() gmi.Cache {
	p.mu.Lock()
	defer p.unlock()
	return p.newCache(nil, true)
}

// ContextCreate implements gmi.MemoryManager.
func (p *PVM) ContextCreate() (gmi.Context, error) {
	p.mu.Lock()
	defer p.unlock()
	ctx := &context{pvm: p, space: p.hw.NewSpace()}
	p.contexts[ctx] = struct{}{}
	p.clock.Charge(cost.EvContextCreate, 1)
	return ctx, nil
}

// pageFloor rounds off down to a page boundary.
func (p *PVM) pageFloor(off int64) int64 { return off &^ p.pageMask }

// pageCeil rounds off up to a page boundary.
func (p *PVM) pageCeil(off int64) int64 { return (off + p.pageMask) &^ p.pageMask }

// pageAligned reports whether off is page-aligned.
func (p *PVM) pageAligned(off int64) bool { return off&p.pageMask == 0 }
