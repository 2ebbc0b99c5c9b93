// Package phys simulates the physical memory of the host: a fixed pool of
// page frames with real byte contents. Frame contents are real so that the
// copy-on-write and zero-fill machinery above is verified byte-for-byte,
// not merely exercised.
//
// Allocation is one free list behind one mutex. A frame is either on
// that list (the allocator owns it) or held by exactly one owner between
// Alloc and Free; there is no other place a free frame can be. The free
// count is updated under the mutex but read without it: Alloc decrements
// it before popping and Free pushes before incrementing, so FreeFrames
// may momentarily under-count but never over-counts. The layer above
// depends on that direction: a granted reservation always corresponds to
// a real frame.
//
// Page descriptors (which page belongs to which cache at which offset)
// are the memory manager's business and live in internal/core.
package phys

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// Frame is one physical page frame. The Data slice is the frame's real
// contents; its length is the memory's page size. A Frame belongs to
// exactly one Memory and, between Alloc and Free, to exactly one owner.
type Frame struct {
	// Index is the physical frame number, stable for the frame's life.
	Index int
	// Data is the frame's contents.
	Data []byte

	next *Frame // free-list link; nil while allocated
	free bool   // on the free list; guarded by Memory.mu
}

// Memory is a pool of page frames.
type Memory struct {
	pageSize int
	clock    *cost.Clock

	mu       sync.Mutex
	frames   []Frame
	freeHead *Frame
	// freeN counts the free list. Written under mu, read without it; see
	// the package comment for the ordering that keeps it from
	// over-counting.
	freeN atomic.Int64

	batchFrees atomic.Uint64
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
		m.push(f)
	}
	return m
}

// PageSize returns the frame size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// TotalFrames returns the pool size.
func (m *Memory) TotalFrames() int { return len(m.frames) }

// FreeFrames returns the number of frames on the free list.
func (m *Memory) FreeFrames() int { return int(m.freeN.Load()) }

// BatchFrees counts the FreeBatch calls of more than one frame; core
// mirrors it into Stats.BatchFrees.
func (m *Memory) BatchFrees() uint64 { return m.batchFrees.Load() }

// Alloc returns a free frame, or gmi.ErrNoMemory when none is left: the
// allocator never reclaims — the memory manager above evicts before it
// allocates. The frame's contents are whatever the previous owner left
// (real hardware does not zero frames); callers wanting zeroes use
// AllocZeroed or Zero.
func (m *Memory) Alloc() (*Frame, error) {
	m.mu.Lock()
	f := m.freeHead
	if f == nil {
		m.mu.Unlock()
		return nil, gmi.ErrNoMemory
	}
	m.freeN.Add(-1)
	m.freeHead = f.next
	f.next = nil
	f.free = false
	m.mu.Unlock()
	m.clock.Charge(cost.EvFrameAlloc, 1)
	return f, nil
}

// AllocZeroed returns a frame whose contents are all zero: Alloc, then
// Zero, with both charges.
func (m *Memory) AllocZeroed() (*Frame, error) {
	f, err := m.Alloc()
	if err != nil {
		return nil, err
	}
	m.Zero(f)
	return f, nil
}

// push puts an allocated frame on the free list and counts it, or
// reports false, changing nothing, if the frame is already free. Callers
// hold mu.
func (m *Memory) push(f *Frame) bool {
	if f.free {
		return false
	}
	f.free = true
	f.next = m.freeHead
	m.freeHead = f
	m.freeN.Add(1)
	return true
}

// Free returns the frame to the pool. Freeing a free frame panics: it
// always indicates an ownership bug in the layer above.
func (m *Memory) Free(f *Frame) {
	m.mu.Lock()
	ok := m.push(f)
	m.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("phys: double free of frame %d", f.Index))
	}
	m.clock.Charge(cost.EvFrameFree, 1)
}

// FreeBatch returns every frame under one lock acquisition — the path
// reclaim uses for a whole eviction pass. A batch of one is an ordinary
// Free and counts no batch.
func (m *Memory) FreeBatch(fs []*Frame) {
	if len(fs) <= 1 {
		if len(fs) == 1 {
			m.Free(fs[0])
		}
		return
	}
	m.mu.Lock()
	for _, f := range fs {
		if !m.push(f) {
			m.mu.Unlock()
			panic(fmt.Sprintf("phys: double free of frame %d in batch", f.Index))
		}
	}
	m.mu.Unlock()
	m.batchFrees.Add(1)
	m.clock.Charge(cost.EvFrameFree, len(fs))
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
