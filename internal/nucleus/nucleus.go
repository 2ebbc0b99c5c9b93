// Package nucleus implements the Chorus Nucleus layer of the paper's
// section 5.1: actors (address spaces), sparse capabilities designating
// segments, mappers (the external segment implementations, reached through
// IPC), and the segment manager — the Nucleus component that binds
// capabilities to GMI local-caches, keeps unreferenced caches warm
// (segment caching, section 5.1.3), and exposes the high-level region
// operations rgnAllocate / rgnMap / rgnInit / rgnMapFromActor /
// rgnInitFromActor (section 5.1.4).
package nucleus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/ipc"
	"chorusvm/internal/seg"
)

// Errors returned by Nucleus operations.
var (
	ErrBadCapability = errors.New("nucleus: bad capability")
	ErrNoRegion      = errors.New("nucleus: no region at address")
	ErrMapperFailed  = errors.New("nucleus: mapper request failed")
)

// Capability designates a segment: the mapper's port plus an opaque key —
// the sparse capability of section 5.1.1.
type Capability struct {
	Port *ipc.Port
	Key  uint64
}

// Valid reports whether the capability designates anything.
func (c Capability) Valid() bool { return c.Port != nil }

// Site is one Chorus site: a memory manager, its IPC machinery, the
// segment manager, and a default mapper for temporaries.
type Site struct {
	MM     gmi.MemoryManager
	Clock  *cost.Clock
	IPC    *ipc.Kernel
	SegMgr *SegmentManager

	mu      sync.Mutex
	mappers []*Mapper // started on the site and not yet stopped by Close
}

// NewSite wires a site together. newMM constructs the memory manager given
// the segment allocator it must use for segmentCreate upcalls (breaking
// the construction cycle between the MM and the segment manager).
func NewSite(clock *cost.Clock, newMM func(gmi.SegmentAllocator) gmi.MemoryManager) *Site {
	sm := &SegmentManager{
		clock:      clock,
		bound:      make(map[capKey]*segEntry),
		cacheLimit: 64,
	}
	mm := newMM(sm)
	sm.mm = mm
	site := &Site{MM: mm, Clock: clock, SegMgr: sm, IPC: ipc.NewKernel(mm, clock, 32)}
	sm.defaultMapper = NewMapper(site, "default-mapper")
	return site
}

// Close stops every mapper started on the site, the default mapper
// included: it destroys their ports and waits until each has closed the
// stores it held. Segments bound to them can no longer be paged. A
// second Close stops only mappers started since the first.
func (s *Site) Close() {
	s.mu.Lock()
	ms := s.mappers
	s.mappers = nil
	s.mu.Unlock()
	for _, m := range ms {
		m.port.Destroy()
		<-m.done
	}
}

// Mapper protocol ops (the read/write interface mappers export, section
// 5.1.1; requests and replies travel as IPC messages).
const (
	mapOpRead   = 1
	mapOpWrite  = 2
	mapOpCreate = 3
)

// encodeReq builds a mapper request: [op u8][key u64][off i64][size i64][data...].
func encodeReq(op byte, key uint64, off, size int64, data []byte) []byte {
	req := make([]byte, 25+len(data))
	req[0] = op
	binary.LittleEndian.PutUint64(req[1:], key)
	binary.LittleEndian.PutUint64(req[9:], uint64(off))
	binary.LittleEndian.PutUint64(req[17:], uint64(size))
	copy(req[25:], data)
	return req
}

func decodeReq(req []byte) (op byte, key uint64, off, size int64, data []byte, ok bool) {
	if len(req) < 25 {
		return 0, 0, 0, 0, nil, false
	}
	return req[0],
		binary.LittleEndian.Uint64(req[1:]),
		int64(binary.LittleEndian.Uint64(req[9:])),
		int64(binary.LittleEndian.Uint64(req[17:])),
		req[25:], true
}

// Mapper is a segment-implementing actor: it owns secondary-storage
// objects (RAM stores standing in for disks) and serves the read/write
// mapper protocol on its port. It owns its stores: a store lives until
// its segment is released (the swap segment of a destroyed cache) or
// until the mapper's port is destroyed, which closes them all.
type Mapper struct {
	site *Site
	port *ipc.Port
	done chan struct{} // closed when serve has closed the stores

	mu      sync.Mutex
	stores  map[uint64]*seg.Store // nil once the port is destroyed
	nextKey uint64
}

// NewMapper starts a mapper actor on the site; Site.Close stops it.
func NewMapper(site *Site, name string) *Mapper {
	m := &Mapper{site: site, stores: make(map[uint64]*seg.Store), done: make(chan struct{})}
	m.port = site.IPC.AllocPort(name)
	site.mu.Lock()
	site.mappers = append(site.mappers, m)
	site.mu.Unlock()
	go m.serve()
	return m
}

// serve answers requests until the port is destroyed, then closes every
// store the mapper still holds.
func (m *Mapper) serve() {
	defer close(m.done)
	m.port.Serve(m.handle)
	m.mu.Lock()
	stores := m.stores
	m.stores = nil
	m.mu.Unlock()
	for _, st := range stores {
		_ = st.Close()
	}
}

// CreateSegment makes a new (empty, sparse) segment and returns its
// capability. A mapper whose port is destroyed holds no store for it.
func (m *Mapper) CreateSegment() Capability {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextKey++
	key := m.nextKey
	if m.stores != nil {
		m.stores[key] = seg.NewStore(m.site.MM.PageSize(), m.site.Clock)
	}
	return Capability{Port: m.port, Key: key}
}

// release closes and drops the store behind a capability.
func (m *Mapper) release(c Capability) error {
	m.mu.Lock()
	st := m.stores[c.Key]
	delete(m.stores, c.Key)
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// Preload writes initial content into a segment (installing program
// binaries, test fixtures); it bypasses IPC, as a tool would. A store
// that refuses the write (closed, or a latched writeback failure) is
// reported.
func (m *Mapper) Preload(c Capability, off int64, data []byte) error {
	m.mu.Lock()
	st, ok := m.stores[c.Key]
	m.mu.Unlock()
	if !ok {
		return ErrBadCapability
	}
	return st.WriteAt(off, data)
}

// StorePages reports the page count held for a capability (tests).
func (m *Mapper) StorePages(c Capability) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.stores[c.Key]; ok {
		return st.Pages()
	}
	return 0
}

// handle serves one mapper request. A store failure answers with an
// empty reply, which the client reports as ErrMapperFailed: a failed
// read's buffer holds unspecified bytes and must not travel back as page
// content.
func (m *Mapper) handle(req []byte) []byte {
	op, key, off, size, data, ok := decodeReq(req)
	if !ok {
		return nil
	}
	m.mu.Lock()
	st := m.stores[key]
	m.mu.Unlock()
	switch op {
	case mapOpCreate:
		cap := m.CreateSegment()
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, cap.Key)
		return out
	case mapOpRead:
		if st == nil {
			return nil
		}
		buf := make([]byte, size)
		if err := st.ReadAt(off, buf); err != nil {
			return nil
		}
		return buf
	case mapOpWrite:
		if st == nil {
			return nil
		}
		if err := st.WriteAt(off, data); err != nil {
			return nil
		}
		return []byte{0}
	}
	return nil
}

// capKey identifies a segment across the site.
type capKey struct {
	port uint64
	key  uint64
}

// segEntry is the segment manager's record for one bound local-cache.
type segEntry struct {
	key   capKey
	cap   Capability
	cache gmi.Cache
	refs  int
}

// SegmentManager maps capabilities to local-caches, acting as the cache
// server of section 5.1.2 and the segmentCreate allocator of section
// 3.3.3. Unreferenced caches are kept warm until the cache limit is hit
// (segment caching, section 5.1.3).
type SegmentManager struct {
	mm    gmi.MemoryManager
	clock *cost.Clock

	mu         sync.Mutex
	bound      map[capKey]*segEntry
	lru        []*segEntry // unreferenced entries, oldest first
	cacheLimit int

	defaultMapper *Mapper

	hits, misses uint64
}

var _ gmi.SegmentAllocator = (*SegmentManager)(nil)

// Stats returns the segment-caching hit/miss counters.
func (sm *SegmentManager) Stats() (hits, misses uint64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.hits, sm.misses
}

// SetCacheLimit adjusts how many unreferenced caches are kept (0 disables
// segment caching, for the ablation benchmark).
func (sm *SegmentManager) SetCacheLimit(n int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.cacheLimit = n
	sm.trimLocked()
}

// DefaultMapper returns the site's default mapper.
func (sm *SegmentManager) DefaultMapper() *Mapper { return sm.defaultMapper }

// Acquire finds or creates the local-cache for a capability; callers
// Release it when the last mapping goes.
func (sm *SegmentManager) Acquire(c Capability) (gmi.Cache, error) {
	if !c.Valid() {
		return nil, ErrBadCapability
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	k := capKey{port: c.Port.ID(), key: c.Key}
	if e, ok := sm.bound[k]; ok {
		if e.refs == 0 {
			sm.removeFromLRU(e)
			sm.hits++
		}
		e.refs++
		return e.cache, nil
	}
	sm.misses++
	e := &segEntry{key: k, cap: c, refs: 1}
	e.cache = sm.mm.CacheCreate(&mapperSegment{cap: c})
	sm.bound[k] = e
	return e.cache, nil
}

// Release drops one reference on the capability's cache; at zero the cache
// is kept warm (up to the cache limit) rather than discarded.
func (sm *SegmentManager) Release(c Capability) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	k := capKey{port: c.Port.ID(), key: c.Key}
	e, ok := sm.bound[k]
	if !ok || e.refs == 0 {
		return
	}
	e.refs--
	if e.refs == 0 {
		sm.lru = append(sm.lru, e)
		sm.trimLocked()
	}
}

func (sm *SegmentManager) removeFromLRU(e *segEntry) {
	for i, x := range sm.lru {
		if x == e {
			sm.lru = append(sm.lru[:i], sm.lru[i+1:]...)
			return
		}
	}
}

func (sm *SegmentManager) trimLocked() {
	for len(sm.lru) > sm.cacheLimit {
		victim := sm.lru[0]
		sm.lru = sm.lru[1:]
		delete(sm.bound, victim.key)
		// Push modified data home, then discard.
		cache := victim.cache
		sm.mu.Unlock()
		_ = cache.Flush(0, 1<<62)
		_ = cache.Destroy()
		sm.mu.Lock()
	}
}

// SegmentCreate implements gmi.SegmentAllocator: a unilaterally created
// cache (temporary, history object) gets a swap segment from the default
// mapper on its first push-out (section 5.1.2). The memory manager
// releases it when the cache dies, and the mapper then drops its store.
func (sm *SegmentManager) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	cap := sm.defaultMapper.CreateSegment()
	return &mapperSegment{cap: cap, owner: sm.defaultMapper}, nil
}

// mapperSegment implements gmi.Segment by translating GMI upcalls into IPC
// requests to the segment's mapper — exactly the transformation the
// segment manager performs in section 5.1.2. owner is set on the swap
// segments SegmentCreate makes, which Release hands back to their mapper.
type mapperSegment struct {
	cap   Capability
	owner *Mapper
}

// Release is the end of a swap segment: its mapper closes and drops the
// store behind it. The memory manager calls it when the cache it created
// the segment for is freed.
func (ms *mapperSegment) Release() error {
	if ms.owner == nil {
		return nil
	}
	return ms.owner.release(ms.cap)
}

var (
	_ gmi.Segment = (*mapperSegment)(nil)
	_ gmi.Pager   = (*mapperSegment)(nil)
)

// SubmitPull implements gmi.Pager: the IPC round-trip to the mapper moves
// onto its own goroutine, so the faulting thread parks on the page stub
// instead of inside Port.Call, and one reply completes every context
// waiting on the cluster.
func (ms *mapperSegment) SubmitPull(r *gmi.PageRequest) {
	off, size := r.Off, r.Size
	go func() {
		resp, err := ms.cap.Port.Call(encodeReq(mapOpRead, ms.cap.Key, off, size, nil))
		if err == nil && int64(len(resp)) != size {
			err = fmt.Errorf("%w: short read (%d of %d bytes)", ErrMapperFailed, len(resp), size)
		}
		if err != nil {
			r.Complete(nil, gmi.ProtNone, err)
			return
		}
		r.Complete(resp, gmi.ProtRWX, nil)
	}()
}

// PullIn implements gmi.Segment.
func (ms *mapperSegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	resp, err := ms.cap.Port.Call(encodeReq(mapOpRead, ms.cap.Key, off, size, nil))
	if err != nil {
		return err
	}
	if int64(len(resp)) != size {
		return fmt.Errorf("%w: short read (%d of %d bytes)", ErrMapperFailed, len(resp), size)
	}
	return c.FillUp(off, resp, gmi.ProtRWX)
}

// GetWriteAccess implements gmi.Segment.
func (ms *mapperSegment) GetWriteAccess(c gmi.Cache, off, size int64) error { return nil }

// PushOut implements gmi.Segment.
func (ms *mapperSegment) PushOut(c gmi.Cache, off, size int64) error {
	buf := make([]byte, size)
	if err := c.CopyBack(off, buf); err != nil {
		return err
	}
	resp, err := ms.cap.Port.Call(encodeReq(mapOpWrite, ms.cap.Key, off, size, buf))
	if err != nil {
		return err
	}
	if len(resp) == 0 {
		return ErrMapperFailed
	}
	return nil
}
