// Package machvm implements the comparison baseline of the paper: a
// Mach-style virtual memory manager with shadow objects (Rashid et al.,
// IEEE ToC 1988), behind the same Generic Memory-management Interface as
// the PVM. Running identical workloads over both managers regenerates the
// Chorus-vs-Mach rows of Tables 6 and 7.
//
// The implementation follows the paper's own description of Mach (section
// 4.2.5): when a cache is copied, the source is set read-only and two new
// shadow objects are created; the shadows keep the pages modified by the
// source and the copy respectively, while the original pages remain in the
// source object. Successive copies build shadow chains; a collapse pass
// merges a shadow with its backing object once it is the only referencer —
// the garbage collection the paper calls "a major complication of the Mach
// algorithm".
//
// Mach-specific costs (object locking, pager port setup, vm_map entry
// machinery, chain walks) are charged through dedicated events calibrated
// from the paper's Mach measurements; see internal/cost/calibration.go.
package machvm

import (
	"fmt"
	"sort"
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mmu"
	"chorusvm/internal/phys"
)

// Options configures a MachVM instance; the zero value gets the same
// defaults as the PVM so comparisons are apples-to-apples.
type Options struct {
	Frames   int
	PageSize int
	Clock    *cost.Clock
	SegAlloc gmi.SegmentAllocator
	// DisableCollapse turns off shadow-chain garbage collection, for the
	// chain-growth ablation.
	DisableCollapse bool
}

// Stats are MachVM-internal counters.
type Stats struct {
	Faults     uint64
	SegvFaults uint64
	ZeroFills  uint64
	CowBreaks  uint64
	ChainWalks uint64
	Collapses  uint64
	PullIns    uint64
	PushOuts   uint64
	Evictions  uint64
	Shadows    uint64
}

// MachVM is the shadow-object memory manager.
type MachVM struct {
	clock    *cost.Clock
	mem      *phys.Memory
	hw       mmu.MMU
	segalloc gmi.SegmentAllocator
	pageSize int64
	pageMask int64
	collapse bool

	mu       sync.Mutex
	objects  map[*vmObject]struct{}
	contexts map[*mcontext]struct{}
	lru      mlru
	stats    Stats
}

var _ gmi.MemoryManager = (*MachVM)(nil)

// New creates a MachVM.
func New(o Options) *MachVM {
	if o.Frames == 0 {
		o.Frames = 1024
	}
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.Clock == nil {
		o.Clock = cost.New()
	}
	m := &MachVM{
		clock:    o.Clock,
		segalloc: o.SegAlloc,
		pageSize: int64(o.PageSize),
		pageMask: int64(o.PageSize) - 1,
		collapse: !o.DisableCollapse,
		objects:  make(map[*vmObject]struct{}),
		contexts: make(map[*mcontext]struct{}),
	}
	m.mem = phys.NewMemory(o.Frames, o.PageSize, o.Clock)
	m.hw = mmu.NewTwoLevel(o.PageSize, o.Clock)
	return m
}

// Name implements gmi.MemoryManager.
func (m *MachVM) Name() string { return "mach" }

// PageSize implements gmi.MemoryManager.
func (m *MachVM) PageSize() int { return int(m.pageSize) }

// Clock returns the simulated clock.
func (m *MachVM) Clock() *cost.Clock { return m.clock }

// Memory returns the physical pool.
func (m *MachVM) Memory() *phys.Memory { return m.mem }

// Stats returns a copy of the counters.
func (m *MachVM) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// CacheCreate implements gmi.MemoryManager. A pager-backed memory object
// gets its port machinery set up, which is where much of Mach's structural
// cost lives.
func (m *MachVM) CacheCreate(seg gmi.Segment) gmi.Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj := m.newObject(seg)
	m.clock.Charge(cost.EvMachPortSetup, 1)
	return &mcache{vm: m, obj: obj}
}

// TempCacheCreate implements gmi.MemoryManager: an anonymous zero-fill
// memory object.
func (m *MachVM) TempCacheCreate() gmi.Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj := m.newObject(nil)
	m.clock.Charge(cost.EvMachPortSetup, 1)
	return &mcache{vm: m, obj: obj}
}

// ContextCreate implements gmi.MemoryManager.
func (m *MachVM) ContextCreate() (gmi.Context, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ctx := &mcontext{vm: m, space: m.hw.NewSpace()}
	m.contexts[ctx] = struct{}{}
	m.clock.Charge(cost.EvContextCreate, 1)
	return ctx, nil
}

// ObjectCount reports live vm_objects (tests verify collapse with it).
func (m *MachVM) ObjectCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.objects)
}

// ChainDepth reports the shadow-chain length behind a cache.
func (m *MachVM) ChainDepth(c gmi.Cache) int {
	mc, ok := c.(*mcache)
	if !ok {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for o := mc.obj; o != nil; o = o.shadow {
		n++
	}
	return n
}

func (m *MachVM) pageFloor(off int64) int64 { return off &^ m.pageMask }
func (m *MachVM) pageCeil(off int64) int64  { return (off + m.pageMask) &^ m.pageMask }
func (m *MachVM) pageAligned(o int64) bool  { return o&m.pageMask == 0 }

// pageCeilClamped computes the exclusive page-aligned end of [off,
// off+size) without overflowing for "whole cache" sizes.
func (m *MachVM) pageCeilClamped(off, size int64) int64 {
	if size > (1<<62)-off {
		return 1 << 62
	}
	return m.pageCeil(off + size)
}

// offsetsInRange snapshots the offsets at which the object holds resident
// pages within [lo, hi); m.mu held. Range operations iterate this instead
// of the nominal (possibly huge, sparse) offset range.
func (m *MachVM) offsetsInRange(obj *vmObject, lo, hi int64) []int64 {
	var out []int64
	for off := range obj.pages {
		if off >= lo && off < hi {
			out = append(out, off)
		}
	}
	return out
}

// vmObject is a Mach memory object: a container of pages, possibly backed
// by a shadow chain and/or an external pager.
type vmObject struct {
	vm        *MachVM
	pager     gmi.Segment
	temp      bool // anonymous; default pager assigned on first push-out
	shadow    *vmObject
	shadowOff int64 // offset o here corresponds to o+shadowOff in shadow
	pages     map[int64]*mpage
	refs      int // mcaches + children shadowing this object
}

// mpage is a resident page of an object.
type mpage struct {
	frame   *phys.Frame
	obj     *vmObject
	off     int64
	granted gmi.Prot
	dirty   bool
	pin     int
	busy    bool
	busyCh  chan struct{}
	rmap    []mmapping

	lruPrev, lruNext *mpage
	inLRU            bool
}

type mmapping struct {
	ctx *mcontext
	va  gmi.VA
}

func (m *MachVM) newObject(pager gmi.Segment) *vmObject {
	obj := &vmObject{vm: m, pager: pager, temp: pager == nil, pages: make(map[int64]*mpage), refs: 1}
	m.objects[obj] = struct{}{}
	m.clock.Charge(cost.EvMachObjectCreate, 1)
	return obj
}

// unref drops one reference; at zero the object dies and its backing chain
// is unreferenced in turn, with collapse opportunities taken.
func (m *MachVM) unref(obj *vmObject) {
	obj.refs--
	if obj.refs > 0 {
		if m.collapse {
			m.tryCollapseInto(obj)
		}
		return
	}
	for _, pg := range obj.pages {
		m.freePage(pg)
	}
	obj.pages = nil
	delete(m.objects, obj)
	m.clock.Charge(cost.EvMachObjectDestroy, 1)
	if obj.shadow != nil {
		m.unref(obj.shadow)
		obj.shadow = nil
	}
}

// tryCollapseInto merges obj's backing shadow into obj when obj is its
// only referencer — Mach's vm_object_collapse.
func (m *MachVM) tryCollapseInto(obj *vmObject) {
	for {
		sh := obj.shadow
		if sh == nil || sh.refs != 1 || sh.pager != nil {
			return
		}
		// Keep obj's own versions; lift the shadow's others.
		for off, pg := range sh.pages {
			noff := off - obj.shadowOff
			if _, own := obj.pages[noff]; own || pg.busy || pg.pin > 0 {
				continue
			}
			delete(sh.pages, off)
			pg.obj = obj
			pg.off = noff
			obj.pages[noff] = pg
		}
		for _, pg := range sh.pages {
			m.freePage(pg)
		}
		sh.pages = nil
		obj.shadow = sh.shadow
		obj.shadowOff += sh.shadowOff
		sh.shadow = nil
		delete(m.objects, sh)
		m.clock.Charge(cost.EvMachObjectDestroy, 1)
		m.stats.Collapses++
	}
}

// lookup walks the shadow chain for the current version of (obj, off),
// charging one chain-walk per hop past the first object.
func (m *MachVM) lookup(obj *vmObject, off int64) (*mpage, *vmObject, int64) {
	o, woff := obj, off
	for o != nil {
		if pg, ok := o.pages[woff]; ok {
			return pg, o, woff
		}
		if o.shadow == nil {
			return nil, o, woff
		}
		woff += o.shadowOff
		o = o.shadow
		m.clock.Charge(cost.EvMachChainWalk, 1)
		m.stats.ChainWalks++
	}
	return nil, nil, 0
}

// addPage installs a fresh page in an object.
func (m *MachVM) addPage(obj *vmObject, off int64, f *phys.Frame, granted gmi.Prot, dirty bool) *mpage {
	pg := &mpage{frame: f, obj: obj, off: off, granted: granted, dirty: dirty}
	obj.pages[off] = pg
	m.lru.push(pg)
	return pg
}

func (m *MachVM) freePage(pg *mpage) {
	m.invalidateMappings(pg)
	m.lru.remove(pg)
	if pg.obj != nil {
		delete(pg.obj.pages, pg.off)
	}
	if pg.frame != nil {
		m.mem.Free(pg.frame)
		pg.frame = nil
	}
}

func (m *MachVM) invalidateMappings(pg *mpage) {
	for _, mp := range pg.rmap {
		if mp.ctx.destroyed {
			continue
		}
		if f, _, ok := mp.ctx.space.Lookup(mp.va); ok && f == pg.frame {
			mp.ctx.space.Unmap(mp.va)
		}
	}
	clear(pg.rmap)
	pg.rmap = pg.rmap[:0]
}

// addMapping records a translation installed for pg (m.mu held). Like the
// PVM's, the duplicate scan drops entries of destroyed contexts and zeroes
// the vacated slots, so the list names only live mappers.
func (pg *mpage) addMapping(ctx *mcontext, va gmi.VA) {
	live := pg.rmap[:0]
	dup := false
	for _, mp := range pg.rmap {
		if mp.ctx.destroyed {
			continue
		}
		dup = dup || (mp.ctx == ctx && mp.va == va)
		live = append(live, mp)
	}
	clear(pg.rmap[len(live):])
	pg.rmap = live
	if !dup {
		pg.rmap = append(pg.rmap, mmapping{ctx: ctx, va: va})
	}
}

// protectRange write-protects the resident pages of obj in [lo, hi): the
// pmap range operation Mach performs at copy time (charged at the cheap
// batch rate, which is why Mach's 0-copied column is flat in Table 7).
func (m *MachVM) protectRange(obj *vmObject, lo, hi int64) {
	npages := int((hi - lo) / m.pageSize)
	m.clock.Charge(cost.EvMachPmapRangeOp, npages)
	for off, pg := range obj.pages {
		if off < lo || off >= hi {
			continue
		}
		live := pg.rmap[:0]
		for _, mp := range pg.rmap {
			if mp.ctx.destroyed {
				continue
			}
			if f, cur, ok := mp.ctx.space.Lookup(mp.va); ok && f == pg.frame {
				mp.ctx.space.Protect(mp.va, cur&^gmi.ProtWrite)
				live = append(live, mp)
			}
		}
		clear(pg.rmap[len(live):])
		pg.rmap = live
	}
}

// mlru is the page-out queue.
type mlru struct {
	head, tail *mpage
}

func (l *mlru) push(pg *mpage) {
	if pg.inLRU {
		l.remove(pg)
	}
	pg.lruPrev, pg.lruNext = nil, l.head
	if l.head != nil {
		l.head.lruPrev = pg
	}
	l.head = pg
	if l.tail == nil {
		l.tail = pg
	}
	pg.inLRU = true
}

func (l *mlru) remove(pg *mpage) {
	if !pg.inLRU {
		return
	}
	if pg.lruPrev != nil {
		pg.lruPrev.lruNext = pg.lruNext
	} else {
		l.head = pg.lruNext
	}
	if pg.lruNext != nil {
		pg.lruNext.lruPrev = pg.lruPrev
	} else {
		l.tail = pg.lruPrev
	}
	pg.lruPrev, pg.lruNext = nil, nil
	pg.inLRU = false
}

// reserve evicts until an allocation can succeed; returns an error when
// memory is exhausted. p.mu held; may be released around push-outs.
func (m *MachVM) reserve(k int) error {
	for m.mem.FreeFrames() < k {
		progress, err := m.evictOne()
		if err != nil {
			return err
		}
		if !progress {
			return gmi.ErrNoMemory
		}
	}
	return nil
}

func (m *MachVM) evictOne() (bool, error) {
	for pg := m.lru.tail; pg != nil; pg = pg.lruPrev {
		if pg.pin > 0 || pg.busy {
			continue
		}
		obj := pg.obj
		if !pg.dirty {
			m.freePage(pg)
			m.stats.Evictions++
			return true, nil
		}
		if obj.pager == nil {
			if m.segalloc == nil {
				continue
			}
			m.mu.Unlock()
			pager, err := m.segalloc.SegmentCreate(&objIO{vm: m, obj: obj})
			m.mu.Lock()
			if err != nil {
				return false, err
			}
			if obj.pager == nil {
				obj.pager = pager
			}
			return true, nil
		}
		if err := m.pushPage(pg); err != nil {
			return false, err
		}
		if pg.frame != nil {
			m.freePage(pg)
		}
		m.stats.Evictions++
		return true, nil
	}
	return false, nil
}

func (m *MachVM) pushPage(pg *mpage) error {
	obj, off, pager := pg.obj, pg.off, pg.obj.pager
	pg.busy = true
	pg.busyCh = make(chan struct{})
	m.stats.PushOuts++
	m.clock.Charge(cost.EvPushOut, 1)
	m.mu.Unlock()
	err := pager.PushOut(&objIO{vm: m, obj: obj}, off, m.pageSize)
	m.mu.Lock()
	pg.busy = false
	close(pg.busyCh)
	pg.busyCh = nil
	if err != nil {
		return err
	}
	if pg.frame != nil {
		pg.dirty = false
	}
	return nil
}

func (m *MachVM) waitBusy(pg *mpage) {
	ch := pg.busyCh
	if ch == nil {
		return
	}
	m.mu.Unlock()
	<-ch
	m.mu.Lock()
}

// objIO adapts a vmObject to the gmi.Cache surface that segment managers
// use (fillUp/copyBack/moveBack); the other methods are not meaningful on
// a bare object and return errors.
type objIO struct {
	vm  *MachVM
	obj *vmObject
}

var _ gmi.Cache = (*objIO)(nil)

func (io *objIO) Segment() gmi.Segment { return io.obj.pager }

func (io *objIO) FillUp(off int64, data []byte, mode gmi.Prot) error {
	m := io.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	for done := int64(0); done < int64(len(data)); done += m.pageSize {
		end := done + m.pageSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if pg, ok := io.obj.pages[off+done]; ok {
			if !pg.dirty {
				copy(pg.frame.Data, data[done:end])
				m.clock.Charge(cost.EvBcopyPage, 1)
				pg.granted |= mode
			}
			continue
		}
		if err := m.reserve(1); err != nil {
			return err
		}
		f, err := m.mem.Alloc()
		if err != nil {
			return err
		}
		if end-done < m.pageSize {
			m.mem.Zero(f)
		}
		copy(f.Data, data[done:end])
		m.clock.Charge(cost.EvBcopyPage, 1)
		m.addPage(io.obj, off+done, f, mode, false)
	}
	return nil
}

func (io *objIO) CopyBack(off int64, buf []byte) error {
	m := io.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	for done := int64(0); done < int64(len(buf)); done += m.pageSize {
		end := done + m.pageSize
		if end > int64(len(buf)) {
			end = int64(len(buf))
		}
		if pg, ok := io.obj.pages[m.pageFloor(off+done)]; ok {
			b := off + done - m.pageFloor(off+done)
			copy(buf[done:end], pg.frame.Data[b:b+(end-done)])
			m.clock.Charge(cost.EvBcopyPage, 1)
		} else {
			clear(buf[done:end])
		}
	}
	return nil
}

func (io *objIO) MoveBack(off int64, buf []byte) error {
	if err := io.CopyBack(off, buf); err != nil {
		return err
	}
	m := io.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	for done := int64(0); done < int64(len(buf)); done += m.pageSize {
		if pg, ok := io.obj.pages[m.pageFloor(off+done)]; ok && pg.pin == 0 {
			m.freePage(pg)
		}
	}
	return nil
}

func (io *objIO) errNotCache() error { return fmt.Errorf("machvm: bare object has no cache surface") }

func (io *objIO) Copy(gmi.Cache, int64, int64, int64) error  { return io.errNotCache() }
func (io *objIO) Move(gmi.Cache, int64, int64, int64) error  { return io.errNotCache() }
func (io *objIO) ReadAt(int64, []byte) error                 { return io.errNotCache() }
func (io *objIO) WriteAt(int64, []byte) error                { return io.errNotCache() }
func (io *objIO) Flush(int64, int64) error                   { return io.errNotCache() }
func (io *objIO) Sync(int64, int64) error                    { return io.errNotCache() }
func (io *objIO) Invalidate(int64, int64) error              { return io.errNotCache() }
func (io *objIO) SetProtection(int64, int64, gmi.Prot) error { return io.errNotCache() }
func (io *objIO) LockInMemory(int64, int64) error            { return io.errNotCache() }
func (io *objIO) Unlock(int64, int64) error                  { return io.errNotCache() }
func (io *objIO) Resident() int                              { return len(io.obj.pages) }
func (io *objIO) Destroy() error                             { return io.errNotCache() }

// sortRegions keeps a context's region list ordered by address.
func sortRegions(rs []*mregion) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].addr < rs[j].addr })
}
