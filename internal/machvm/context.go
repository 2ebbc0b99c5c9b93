package machvm

import (
	"sort"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mmu"
)

// mcontext is a Mach task address space; mregion a vm_map entry. The
// structure intentionally parallels internal/core's so that workloads are
// written once against the GMI and run over either manager.

type mcontext struct {
	vm        *MachVM
	space     mmu.Space
	regions   []*mregion
	destroyed bool
}

var _ gmi.Context = (*mcontext)(nil)

type mregion struct {
	ctx    *mcontext
	addr   gmi.VA
	size   int64
	prot   gmi.Prot
	cache  *mcache
	coff   int64
	locked bool
	gone   bool
	pins   []*mpage
}

var _ gmi.Region = (*mregion)(nil)

func (ctx *mcontext) findRegion(va gmi.VA) *mregion {
	i := sort.Search(len(ctx.regions), func(i int) bool {
		r := ctx.regions[i]
		return gmi.VA(int64(r.addr)+r.size) > va
	})
	if i < len(ctx.regions) && va >= ctx.regions[i].addr {
		return ctx.regions[i]
	}
	return nil
}

// RegionCreate implements gmi.Context: a vm_map entry insertion, charged
// with Mach's map-locking and entry machinery.
func (ctx *mcontext) RegionCreate(addr gmi.VA, size int64, prot gmi.Prot, c gmi.Cache, off int64) (gmi.Region, error) {
	mc, ok := c.(*mcache)
	if !ok {
		return nil, gmi.ErrBadRange
	}
	m := ctx.vm
	if size <= 0 || !m.pageAligned(int64(addr)) || !m.pageAligned(off) {
		return nil, gmi.ErrBadRange
	}
	size = m.pageCeil(size)
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx.destroyed || mc.destroyed {
		return nil, gmi.ErrDestroyed
	}
	i := sort.Search(len(ctx.regions), func(i int) bool {
		r := ctx.regions[i]
		return gmi.VA(int64(r.addr)+r.size) > addr
	})
	if i < len(ctx.regions) && int64(ctx.regions[i].addr) < int64(addr)+size {
		return nil, gmi.ErrOverlap
	}
	r := &mregion{ctx: ctx, addr: addr, size: size, prot: prot, cache: mc, coff: off}
	ctx.regions = append(ctx.regions, r)
	sortRegions(ctx.regions)
	mc.regions = append(mc.regions, r)
	m.clock.Charge(cost.EvRegionCreate, 1)
	m.clock.Charge(cost.EvMachEntrySetup, 1)
	return r, nil
}

// FindRegion implements gmi.Context.
func (ctx *mcontext) FindRegion(va gmi.VA) (gmi.Region, bool) {
	ctx.vm.mu.Lock()
	defer ctx.vm.mu.Unlock()
	if r := ctx.findRegion(va); r != nil {
		return r, true
	}
	return nil, false
}

// Regions implements gmi.Context.
func (ctx *mcontext) Regions() []gmi.Region {
	ctx.vm.mu.Lock()
	defer ctx.vm.mu.Unlock()
	out := make([]gmi.Region, len(ctx.regions))
	for i, r := range ctx.regions {
		out[i] = r
	}
	return out
}

// Switch implements gmi.Context.
func (ctx *mcontext) Switch() {
	ctx.vm.clock.Charge(cost.EvContextSwitch, 1)
}

// Destroy implements gmi.Context.
func (ctx *mcontext) Destroy() error {
	m := ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx.destroyed {
		return gmi.ErrDestroyed
	}
	for len(ctx.regions) > 0 {
		ctx.regions[len(ctx.regions)-1].destroyLocked()
	}
	ctx.destroyed = true
	ctx.space.Destroy()
	delete(m.contexts, ctx)
	m.clock.Charge(cost.EvContextDestroy, 1)
	return nil
}

// Read implements gmi.Context.
func (ctx *mcontext) Read(va gmi.VA, buf []byte) error {
	return ctx.access(va, buf, gmi.ProtRead)
}

// Write implements gmi.Context.
func (ctx *mcontext) Write(va gmi.VA, data []byte) error {
	return ctx.access(va, data, gmi.ProtWrite)
}

func (ctx *mcontext) access(va gmi.VA, buf []byte, mode gmi.Prot) error {
	m := ctx.vm
	for done := 0; done < len(buf); {
		cur := va + gmi.VA(done)
		pageOff := int64(cur) & m.pageMask
		n := m.pageSize - pageOff
		if rem := int64(len(buf) - done); n > rem {
			n = rem
		}
		if err := ctx.accessPage(cur, buf[done:done+int(n)], mode); err != nil {
			return err
		}
		done += int(n)
	}
	return nil
}

func (ctx *mcontext) accessPage(va gmi.VA, chunk []byte, mode gmi.Prot) error {
	m := ctx.vm
	for attempt := 0; attempt < 64; attempt++ {
		m.mu.Lock()
		if ctx.destroyed {
			m.mu.Unlock()
			return gmi.ErrDestroyed
		}
		frame, err := ctx.space.Translate(va, mode, false)
		if err == nil {
			b := int64(va) & m.pageMask
			if mode&gmi.ProtWrite != 0 {
				copy(frame.Data[b:int(b)+len(chunk)], chunk)
			} else {
				copy(chunk, frame.Data[b:int(b)+len(chunk)])
			}
			m.mu.Unlock()
			return nil
		}
		m.mu.Unlock()
		if ferr := m.HandleFault(ctx, va, mode); ferr != nil {
			return ferr
		}
	}
	return gmi.ErrProtection
}

// HandleFault resolves one page fault against the shadow-chain structure.
func (m *MachVM) HandleFault(ctx *mcontext, va gmi.VA, access gmi.Prot) error {
	m.clock.Charge(cost.EvFault, 1)
	m.clock.Charge(cost.EvMachObjectLock, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Faults++

	r := ctx.findRegion(va)
	if r == nil {
		m.stats.SegvFaults++
		return gmi.ErrSegmentation
	}
	if !r.prot.Allows(access) {
		return gmi.ErrProtection
	}
	pva := gmi.VA(m.pageFloor(int64(va)))
	off := r.coff + m.pageFloor(int64(va)-int64(r.addr))

	if access&gmi.ProtWrite != 0 {
		pg, err := m.writablePage(r.cache, off)
		if err != nil {
			return err
		}
		pg.dirty = true
		ctx.space.Map(pva, pg.frame, r.prot)
		pg.addMapping(ctx, pva)
		m.lru.push(pg)
		return nil
	}
	pg, err := m.residentPage(r.cache, off, access)
	if err != nil {
		return err
	}
	prot := r.prot
	if pg.obj != r.cache.obj || !pg.granted.Allows(gmi.ProtWrite) {
		prot &^= gmi.ProtWrite
	} else {
		// Writable own page reached by read: still map read-only so the
		// first write faults and marks it dirty.
		prot &^= gmi.ProtWrite
	}
	ctx.space.Map(pva, pg.frame, prot)
	pg.addMapping(ctx, pva)
	m.lru.push(pg)
	return nil
}

// residentPage finds (pulling in or zero-filling as needed) the page
// holding the current content of (cache, off); m.mu held, may be released.
func (m *MachVM) residentPage(c *mcache, off int64, access gmi.Prot) (*mpage, error) {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("machvm: residentPage livelock")
		}
		pg, owner, woff := m.lookup(c.obj, off)
		if pg != nil {
			if pg.busy {
				m.waitBusy(pg)
				continue
			}
			return pg, nil
		}
		// Bottom of the chain: pull from the pager or zero-fill.
		if owner.pager != nil {
			m.stats.PullIns++
			m.clock.Charge(cost.EvPullIn, 1)
			pager := owner.pager
			m.mu.Unlock()
			err := pager.PullIn(&objIO{vm: m, obj: owner}, woff, m.pageSize, access|gmi.ProtRead)
			m.mu.Lock()
			if err != nil {
				return nil, err
			}
			continue
		}
		// Anonymous: zero-fill in the faulting cache's top object (the
		// Mach demand-zero path).
		if err := m.reserve(1); err != nil {
			return nil, err
		}
		f, err := m.mem.Alloc()
		if err != nil {
			return nil, err
		}
		m.mem.Zero(f)
		m.stats.ZeroFills++
		return m.addPage(c.obj, off, f, gmi.ProtRWX, true), nil
	}
}

// writablePage materializes a private writable page in the cache's top
// object (the Mach copy-on-write break).
func (m *MachVM) writablePage(c *mcache, off int64) (*mpage, error) {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("machvm: writablePage livelock")
		}
		top := c.obj
		if pg, ok := top.pages[off]; ok {
			if pg.busy {
				m.waitBusy(pg)
				continue
			}
			if !pg.granted.Allows(gmi.ProtWrite) {
				if top.pager == nil {
					pg.granted |= gmi.ProtWrite
				} else {
					pager := top.pager
					pg.pin++
					m.mu.Unlock()
					err := pager.GetWriteAccess(&objIO{vm: m, obj: top}, off, m.pageSize)
					m.mu.Lock()
					pg.pin--
					if err != nil {
						return nil, err
					}
					pg.granted |= gmi.ProtWrite
					continue
				}
			}
			return pg, nil
		}
		src, err := m.residentPage(c, off, gmi.ProtRead)
		if err != nil {
			return nil, err
		}
		if src.obj == c.obj {
			continue // materialized while blocked
		}
		// Copy the original into the top object.
		src.pin++
		err = m.reserve(1)
		src.pin--
		if err != nil {
			return nil, err
		}
		if _, ok := c.obj.pages[off]; ok {
			continue
		}
		f, aerr := m.mem.Alloc()
		if aerr != nil {
			return nil, aerr
		}
		m.mem.CopyFrame(f, src.frame)
		m.invalidateMappings(src) // stale read mappings must re-fault
		m.stats.CowBreaks++
		return m.addPage(c.obj, off, f, gmi.ProtRWX, true), nil
	}
}

// Status implements gmi.Region.
func (r *mregion) Status() gmi.RegionStatus {
	r.ctx.vm.mu.Lock()
	defer r.ctx.vm.mu.Unlock()
	return gmi.RegionStatus{
		Addr: r.addr, Size: r.size, Prot: r.prot,
		Cache: r.cache, Offset: r.coff, Locked: r.locked,
	}
}

// Split implements gmi.Region.
func (r *mregion) Split(off int64) (gmi.Region, error) {
	m := r.ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.gone {
		return nil, gmi.ErrDestroyed
	}
	if off <= 0 || off >= r.size || !m.pageAligned(off) {
		return nil, gmi.ErrBadRange
	}
	nr := &mregion{
		ctx: r.ctx, addr: r.addr + gmi.VA(off), size: r.size - off,
		prot: r.prot, cache: r.cache, coff: r.coff + off, locked: r.locked,
	}
	r.size = off
	r.ctx.regions = append(r.ctx.regions, nr)
	sortRegions(r.ctx.regions)
	r.cache.regions = append(r.cache.regions, nr)
	m.clock.Charge(cost.EvRegionCreate, 1)
	m.clock.Charge(cost.EvMachEntrySetup, 1)
	return nr, nil
}

// SetProtection implements gmi.Region.
func (r *mregion) SetProtection(prot gmi.Prot) error {
	m := r.ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	r.prot = prot
	r.ctx.space.InvalidateRange(r.addr, int(r.size/m.pageSize))
	m.clock.Charge(cost.EvMachPmapRangeOp, int(r.size/m.pageSize))
	return nil
}

// LockInMemory implements gmi.Region.
func (r *mregion) LockInMemory() error {
	m := r.ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	if r.locked {
		return nil
	}
	for o := int64(0); o < r.size; o += m.pageSize {
		va := r.addr + gmi.VA(o)
		var pg *mpage
		var err error
		if r.prot&gmi.ProtWrite != 0 {
			pg, err = m.writablePage(r.cache, r.coff+o)
		} else {
			pg, err = m.residentPage(r.cache, r.coff+o, gmi.ProtRead)
		}
		if err != nil {
			r.unlockLocked()
			return err
		}
		pg.pin++
		r.pins = append(r.pins, pg)
		m.lru.remove(pg)
		prot := r.prot
		if r.prot&gmi.ProtWrite != 0 {
			pg.dirty = true
		} else {
			prot &^= gmi.ProtWrite
		}
		r.ctx.space.Map(va, pg.frame, prot)
		pg.addMapping(r.ctx, va)
	}
	r.locked = true
	return nil
}

// Unlock implements gmi.Region.
func (r *mregion) Unlock() error {
	m := r.ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	r.unlockLocked()
	return nil
}

func (r *mregion) unlockLocked() {
	m := r.ctx.vm
	for _, pg := range r.pins {
		if pg.pin > 0 {
			pg.pin--
			if pg.pin == 0 && pg.frame != nil {
				m.lru.push(pg)
			}
		}
	}
	r.pins = nil
	r.locked = false
}

// Destroy implements gmi.Region.
func (r *mregion) Destroy() error {
	m := r.ctx.vm
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	r.destroyLocked()
	return nil
}

func (r *mregion) destroyLocked() {
	m := r.ctx.vm
	if r.gone {
		return
	}
	if r.locked {
		r.unlockLocked()
	}
	r.gone = true
	npages := int(r.size / m.pageSize)
	r.ctx.space.InvalidateRange(r.addr, npages)
	m.clock.Charge(cost.EvMachPmapRangeOp, npages)
	for i, rr := range r.ctx.regions {
		if rr == r {
			r.ctx.regions = append(r.ctx.regions[:i], r.ctx.regions[i+1:]...)
			break
		}
	}
	for i, rr := range r.cache.regions {
		if rr == r {
			r.cache.regions = append(r.cache.regions[:i], r.cache.regions[i+1:]...)
			break
		}
	}
	m.clock.Charge(cost.EvRegionDestroy, 1)
}
