// Package phys simulates the physical memory of the host: a fixed pool of
// page frames with real byte contents. Frame contents are real so that the
// copy-on-write and zero-fill machinery above is verified byte-for-byte,
// not merely exercised.
//
// Allocation is a two-level magazine design (Bonwick's vmem/magazine
// layering, adapted to frames):
//
//   - The depot is the global free list behind one mutex, exactly the old
//     allocator. It is touched only in batches.
//   - A small power-of-two set of magazines (sized from GOMAXPROCS, capped
//     at the PVM's 64 global-map shards) each cache up to magCap frames
//     behind their own mutex. The common Alloc/Free takes one magazine
//     lock; an empty magazine refills from the depot in one transaction, a
//     full one flushes back the same way, so depot traffic is 1/magCap of
//     the allocation rate.
//   - An optional pre-zeroed pool, kept warm by a background zeroer
//     goroutine (StartZeroer, a start/stop lifecycle like the PVM's
//     pageout daemon), feeds AllocZeroed so demand-zero faults skip the
//     in-fault bzero. Frames in the pool remain allocatable: a starved raw
//     Alloc steals from it rather than failing.
//
// FreeFrames counts every allocatable frame — depot, magazine-cached and
// pre-zeroed alike — so the frame-accounting invariant of the layer above
// (free + resident + in-flight == total) is unchanged by the caching.
// The counter is a ticket: Alloc claims a unit of avail *before* popping
// any list and Free inserts *before* incrementing, so FreeFrames may
// momentarily under-count during a transition but never over-counts. The
// layer above depends on that direction: a granted reservation always
// corresponds to a real frame, even if the claimant has to wait out a
// frame in transit (e.g. in the zeroer's hands) to lay hands on it.
//
// Page descriptors (which page belongs to which cache at which offset)
// are the memory manager's business and live in internal/core.
package phys

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
)

// Frame is one physical page frame. The Data slice is the frame's real
// contents; its length is the memory's page size. A Frame belongs to
// exactly one Memory and, between Alloc and Free, to exactly one owner.
type Frame struct {
	// Index is the physical frame number, stable for the frame's life.
	Index int
	// Data is the frame's contents.
	Data []byte

	next *Frame // depot free-list link; nil outside the depot
	// state is frameFree while the allocator has custody (depot, a
	// magazine or the zero pool) and frameAllocated while an owner does.
	// Atomic because custody transitions happen under different locks.
	state int32
}

const (
	frameAllocated int32 = iota
	frameFree
)

// AllocStats are the allocator's own monotonic counters, mirrored into
// core.Stats. Read them through Memory.AllocStats.
type AllocStats struct {
	ZeroPoolHits    uint64 // AllocZeroed served from the pre-zeroed pool
	ZeroPoolMisses  uint64 // AllocZeroed fell back to a synchronous bzero
	MagazineRefills uint64 // magazine batch refills from the depot
	MagazineFlushes uint64 // magazine batch flushes back to the depot
	BatchFrees      uint64 // FreeBatch depot transactions
	FramesZeroed    uint64 // frames zeroed by the background zeroer
}

// Memory is a pool of page frames.
type Memory struct {
	pageSize int
	clock    *cost.Clock
	tracer   *obs.Tracer // nil-safe; frame events and the zeroer histogram

	// Depot: the global free list.
	mu       sync.Mutex
	frames   []Frame
	freeHead *Frame
	freeN    int

	// avail is the allocation ticket counter: allocatable frames across
	// all levels (depot + magazines + zero pool, plus frames in transit
	// between them). See the package comment for the claim-before-pop /
	// insert-before-increment ordering that keeps it from over-counting.
	avail int64

	mags    []magazine
	magMask uint32
	rr      uint32 // atomic cursor spreading callers over magazines

	zero zeroPool

	stats AllocStats
}

// NewMemory creates a pool of nframes frames of pageSize bytes each.
// pageSize must be a power of two.
func NewMemory(nframes, pageSize int, clock *cost.Clock) *Memory {
	if nframes <= 0 || pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("phys: bad geometry %d frames × %d bytes", nframes, pageSize))
	}
	m := &Memory{pageSize: pageSize, clock: clock}
	m.frames = make([]Frame, nframes)
	backing := make([]byte, nframes*pageSize)
	for i := range m.frames {
		f := &m.frames[i]
		f.Index = i
		f.Data = backing[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
		f.state = frameFree
		f.next = m.freeHead
		m.freeHead = f
	}
	m.freeN = nframes
	m.avail = int64(nframes)

	// Magazine count: enough for the machine's parallelism, capped at the
	// PVM's 64 global-map shards, and shrunk for tiny pools so magazine
	// caching cannot strand most of memory away from the depot.
	nmags := 1
	for nmags < runtime.GOMAXPROCS(0) && nmags < 64 {
		nmags <<= 1
	}
	for nmags > 1 && nframes < nmags*magCap {
		nmags >>= 1
	}
	m.mags = make([]magazine, nmags)
	m.magMask = uint32(nmags - 1)
	return m
}

// PageSize returns the frame size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// TotalFrames returns the pool size.
func (m *Memory) TotalFrames() int { return len(m.frames) }

// FreeFrames returns the number of allocatable frames: depot free list,
// magazine caches and the pre-zeroed pool together (plus any frame
// momentarily in transit between levels).
func (m *Memory) FreeFrames() int { return int(atomic.LoadInt64(&m.avail)) }

// SetTracer wires the observability tracer (nil disables; nil-safe).
func (m *Memory) SetTracer(t *obs.Tracer) { m.tracer = t }

// AllocStats returns a snapshot of the allocator counters.
func (m *Memory) AllocStats() AllocStats {
	return AllocStats{
		ZeroPoolHits:    atomic.LoadUint64(&m.stats.ZeroPoolHits),
		ZeroPoolMisses:  atomic.LoadUint64(&m.stats.ZeroPoolMisses),
		MagazineRefills: atomic.LoadUint64(&m.stats.MagazineRefills),
		MagazineFlushes: atomic.LoadUint64(&m.stats.MagazineFlushes),
		BatchFrees:      atomic.LoadUint64(&m.stats.BatchFrees),
		FramesZeroed:    atomic.LoadUint64(&m.stats.FramesZeroed),
	}
}

// Custody returns the per-level breakdown of allocator-held frames. Only
// exact at quiescence (no zeroer mid-transit, no concurrent alloc/free);
// tests use it to verify the magazine ownership invariant
// depot + magazines + zeroPool == FreeFrames.
func (m *Memory) Custody() (depot, magazines, zeroPool int) {
	m.mu.Lock()
	depot = m.freeN
	m.mu.Unlock()
	for i := range m.mags {
		mag := &m.mags[i]
		mag.mu.Lock()
		magazines += mag.n
		mag.mu.Unlock()
	}
	m.zero.mu.Lock()
	zeroPool = len(m.zero.fr)
	m.zero.mu.Unlock()
	return depot, magazines, zeroPool
}

// claimAvail reserves one allocation ticket, failing when none remain. A
// successful claim guarantees findFrame terminates: the corresponding
// frame is in some level's list, or in a bounded transit on its way to
// one.
func (m *Memory) claimAvail() bool {
	for {
		n := atomic.LoadInt64(&m.avail)
		if n <= 0 {
			return false
		}
		if atomic.CompareAndSwapInt64(&m.avail, n, n-1) {
			return true
		}
	}
}

// markAllocated transitions a frame from allocator custody to the caller.
func markAllocated(f *Frame) {
	if !atomic.CompareAndSwapInt32(&f.state, frameFree, frameAllocated) {
		panic(fmt.Sprintf("phys: frame %d handed out while allocated", f.Index))
	}
}

// findFrame redeems a claimed ticket for an actual frame, scanning the
// levels in custody order: the caller's magazine (refilling from the
// depot), then a steal from any magazine, then the pre-zeroed pool (its
// bzero is wasted — last resort). A ticket whose frame is in transit
// (the zeroer's hands, a magazine refill batch, a Free between insert and
// increment) spins it out; every transit is bounded by at most one bzero.
func (m *Memory) findFrame() *Frame {
	for {
		if f := m.magPop(); f != nil {
			markAllocated(f)
			return f
		}
		if f := m.stealMag(); f != nil {
			markAllocated(f)
			return f
		}
		if f := m.zeroPop(); f != nil {
			markAllocated(f)
			return f
		}
		runtime.Gosched()
	}
}

// Alloc returns a free frame, or gmi.ErrNoMemory when none is left: the
// allocator never reclaims — the memory manager above evicts before it
// allocates. The frame's contents are whatever the previous owner left
// (real hardware does not zero frames); callers wanting zeroes use
// AllocZeroed or Zero.
func (m *Memory) Alloc() (*Frame, error) {
	if !m.claimAvail() {
		return nil, gmi.ErrNoMemory
	}
	f := m.findFrame()
	m.clock.Charge(cost.EvFrameAlloc, 1)
	return f, nil
}

// Free returns the frame to the pool. Freeing a free frame panics: it
// always indicates an ownership bug in the layer above.
func (m *Memory) Free(f *Frame) {
	if !atomic.CompareAndSwapInt32(&f.state, frameAllocated, frameFree) {
		panic(fmt.Sprintf("phys: double free of frame %d", f.Index))
	}
	m.magFree(f)
	atomic.AddInt64(&m.avail, 1)
	m.clock.Charge(cost.EvFrameFree, 1)
	m.kickZeroer()
}

// FreeBatch returns every frame in one depot transaction — the batched
// path reclaim uses, so a whole eviction pass costs one depot lock
// instead of len(fs) magazine round-trips. A batch of one is an ordinary
// Free: one depot transaction would buy nothing over one magazine trip.
func (m *Memory) FreeBatch(fs []*Frame) {
	if len(fs) <= 1 {
		if len(fs) == 1 {
			m.Free(fs[0])
		}
		return
	}
	for _, f := range fs {
		if !atomic.CompareAndSwapInt32(&f.state, frameAllocated, frameFree) {
			panic(fmt.Sprintf("phys: double free of frame %d in batch", f.Index))
		}
	}
	m.depotPushN(fs)
	atomic.AddInt64(&m.avail, int64(len(fs)))
	atomic.AddUint64(&m.stats.BatchFrees, 1)
	m.clock.Charge(cost.EvFrameFree, len(fs))
	m.kickZeroer()
}

// Zero fills the frame with zeroes, charging one bzero.
func (m *Memory) Zero(f *Frame) {
	clear(f.Data)
	m.clock.Charge(cost.EvBzeroPage, 1)
}

// CopyFrame copies src's contents into dst, charging one bcopy.
func (m *Memory) CopyFrame(dst, src *Frame) {
	copy(dst.Data, src.Data)
	m.clock.Charge(cost.EvBcopyPage, 1)
}
