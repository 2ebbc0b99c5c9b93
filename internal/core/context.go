package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mmu"
)

// This file implements contexts (address spaces) and regions — the Table 2
// mapped-access interface — plus the simulated CPU load/store path that
// drives the fault handler the way real memory references would.

// context is an address space: a machine-dependent Space plus the sorted
// region list of section 4.1.1.
type context struct {
	pvm *PVM
	// spaceMu is a leaf mutex guarding space (an mmu.Space is serialized
	// by its caller). Taken by the fast fault path and the
	// load/store path under p.mu.RLock; the structural path (p.mu held
	// exclusively) also takes it in invalidateMappings/protectMappings/
	// mapPage, and may touch space directly elsewhere — safe, because
	// exclusive p.mu excludes every RLock holder.
	spaceMu   sync.Mutex
	space     mmu.Space
	regions   []*region // sorted by start address, non-overlapping
	destroyed bool
}

var _ gmi.Context = (*context)(nil)

// region is a contiguous mapped portion of a context.
type region struct {
	ctx    *context
	addr   gmi.VA
	size   int64
	prot   gmi.Prot
	cache  *cache
	coff   int64
	locked bool
	gone   bool
	// pins records the pages pinned by LockInMemory, so Unlock releases
	// exactly those (they may live in ancestor caches).
	pins []*page
}

var _ gmi.Region = (*region)(nil)

// findRegion returns the region containing va; p.mu held.
func (ctx *context) findRegion(va gmi.VA) *region {
	i := sort.Search(len(ctx.regions), func(i int) bool {
		r := ctx.regions[i]
		return gmi.VA(int64(r.addr)+r.size) > va
	})
	if i < len(ctx.regions) {
		if r := ctx.regions[i]; va >= r.addr {
			return r
		}
	}
	return nil
}

// RegionCreate implements gmi.Context: map [off, off+size) of cache c at
// [addr, addr+size). Address and offset must be page-aligned; the size is
// rounded up to whole pages.
func (ctx *context) RegionCreate(addr gmi.VA, size int64, prot gmi.Prot, c gmi.Cache, off int64) (gmi.Region, error) {
	cc, ok := c.(*cache)
	if !ok {
		return nil, gmi.ErrBadRange
	}
	p := ctx.pvm
	if size <= 0 || !p.pageAligned(int64(addr)) || !p.pageAligned(off) {
		return nil, gmi.ErrBadRange
	}
	size = p.pageCeil(size)
	p.mu.Lock()
	defer p.unlock()
	if ctx.destroyed {
		return nil, gmi.ErrDestroyed
	}
	if cc.destroyed {
		return nil, gmi.ErrDestroyed
	}
	// Reject overlap: regions are non-overlapping by definition.
	i := sort.Search(len(ctx.regions), func(i int) bool {
		r := ctx.regions[i]
		return gmi.VA(int64(r.addr)+r.size) > addr
	})
	if i < len(ctx.regions) && int64(ctx.regions[i].addr) < int64(addr)+size {
		return nil, gmi.ErrOverlap
	}
	r := &region{ctx: ctx, addr: addr, size: size, prot: prot, cache: cc, coff: off}
	ctx.regions = append(ctx.regions, nil)
	copy(ctx.regions[i+1:], ctx.regions[i:])
	ctx.regions[i] = r
	cc.regions = append(cc.regions, r)
	p.clock.Charge(cost.EvRegionCreate, 1)
	return r, nil
}

// FindRegion implements gmi.Context.
func (ctx *context) FindRegion(va gmi.VA) (gmi.Region, bool) {
	ctx.pvm.mu.Lock()
	defer ctx.pvm.mu.Unlock()
	if r := ctx.findRegion(va); r != nil {
		return r, true
	}
	return nil, false
}

// Regions implements gmi.Context.
func (ctx *context) Regions() []gmi.Region {
	ctx.pvm.mu.Lock()
	defer ctx.pvm.mu.Unlock()
	out := make([]gmi.Region, len(ctx.regions))
	for i, r := range ctx.regions {
		out[i] = r
	}
	return out
}

// Switch implements gmi.Context: make this the current user context.
func (ctx *context) Switch() {
	p := ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if p.current != ctx {
		p.current = ctx
		p.clock.Charge(cost.EvContextSwitch, 1)
	}
}

// Destroy implements gmi.Context.
func (ctx *context) Destroy() error {
	p := ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if ctx.destroyed {
		return gmi.ErrDestroyed
	}
	for len(ctx.regions) > 0 {
		ctx.regions[len(ctx.regions)-1].destroyLocked()
	}
	ctx.destroyed = true
	ctx.space.Destroy()
	delete(p.contexts, ctx)
	if p.current == ctx {
		p.current = nil
	}
	p.clock.Charge(cost.EvContextDestroy, 1)
	return nil
}

// Read implements gmi.Context: the simulated CPU load path.
func (ctx *context) Read(va gmi.VA, buf []byte) error {
	return ctx.access(va, buf, gmi.ProtRead)
}

// Write implements gmi.Context: the simulated CPU store path.
func (ctx *context) Write(va gmi.VA, data []byte) error {
	return ctx.access(va, data, gmi.ProtWrite)
}

// access performs byte references through the MMU, taking page faults
// exactly as hardware would and handing them to the PVM's handler.
func (ctx *context) access(va gmi.VA, buf []byte, mode gmi.Prot) error {
	p := ctx.pvm
	for done := 0; done < len(buf); {
		cur := va + gmi.VA(done)
		pageOff := int64(cur) & p.pageMask
		n := int(min64(p.pageSize-pageOff, int64(len(buf)-done)))
		if err := ctx.accessPage(cur, buf[done:done+n], mode); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// accessPage references up to one page worth of bytes at va. It runs
// under the shared structural lock plus the context's space mutex, so
// loads and stores from different contexts proceed in parallel, as on a
// multiprocessor.
func (ctx *context) accessPage(va gmi.VA, chunk []byte, mode gmi.Prot) error {
	p := ctx.pvm
	faulted := false
	for attempt := 0; attempt < 64; attempt++ {
		p.mu.RLock()
		if ctx.destroyed {
			p.mu.RUnlock()
			return gmi.ErrDestroyed
		}
		ctx.spaceMu.Lock()
		frame, err := ctx.space.Translate(va, mode, false)
		if err == nil {
			b := int64(va) & p.pageMask
			if mode&gmi.ProtWrite != 0 {
				copy(frame.Data[b:int(b)+len(chunk)], chunk)
			} else {
				copy(chunk, frame.Data[b:int(b)+len(chunk)])
			}
			ctx.spaceMu.Unlock()
			p.mu.RUnlock()
			return nil
		}
		ctx.spaceMu.Unlock()
		p.mu.RUnlock()
		// A retry after a successful fault means a racing writer
		// invalidated the translation we just installed — the same
		// logical fault, re-trapped. Resolve it without re-counting.
		if ferr := p.handleFault(ctx, va, mode, faulted); ferr != nil {
			return ferr
		}
		faulted = true
	}
	atomic.AddUint64(&p.stats.ProtFaults, 1)
	return gmi.ErrProtection
}

// Status implements gmi.Region.
func (r *region) Status() gmi.RegionStatus {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	return gmi.RegionStatus{
		Addr: r.addr, Size: r.size, Prot: r.prot,
		Cache: r.cache, Offset: r.coff, Locked: r.locked,
	}
}

// Split implements gmi.Region: cut the region in two at off; the receiver
// keeps [0, off). Splitting never happens spontaneously (section 3.3.2).
func (r *region) Split(off int64) (gmi.Region, error) {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if r.gone {
		return nil, gmi.ErrDestroyed
	}
	if off <= 0 || off >= r.size || !p.pageAligned(off) {
		return nil, gmi.ErrBadRange
	}
	nr := &region{
		ctx:    r.ctx,
		addr:   r.addr + gmi.VA(off),
		size:   r.size - off,
		prot:   r.prot,
		cache:  r.cache,
		coff:   r.coff + off,
		locked: r.locked,
	}
	r.size = off
	ctx := r.ctx
	i := sort.Search(len(ctx.regions), func(i int) bool { return ctx.regions[i].addr > r.addr })
	ctx.regions = append(ctx.regions, nil)
	copy(ctx.regions[i+1:], ctx.regions[i:])
	ctx.regions[i] = nr
	r.cache.regions = append(r.cache.regions, nr)
	p.clock.Charge(cost.EvRegionCreate, 1)
	return nr, nil
}

// SetProtection implements gmi.Region. On an unlocked region existing
// translations are dropped and re-established by faults; on a locked one
// (whose mappings must not vanish) rights can only be reduced in place.
func (r *region) SetProtection(prot gmi.Prot) error {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	r.prot = prot
	if !r.locked {
		r.ctx.space.InvalidateRange(r.addr, int(r.size/p.pageSize))
		return nil
	}
	for o := int64(0); o < r.size; o += p.pageSize {
		va := r.addr + gmi.VA(o)
		if _, cur, ok := r.ctx.space.Lookup(va); ok {
			r.ctx.space.Protect(va, cur&prot)
		}
	}
	return nil
}

// LockInMemory implements gmi.Region: resolve and pin every page of the
// region so access never faults and the MMU maps stay fixed — the
// real-time guarantee of section 3.3.2. For writable regions this breaks
// deferred copies now, since a later lazy break would fault.
//
// One softening for read-only regions: their pages may be pinned shared
// originals (a deferred copy's view of its source). If the source is
// written afterwards, the locked translation is refreshed to the
// preserved original. The data stays resident and correct and the remap
// is a memory-only operation — no I/O can occur — but the "maps remain
// fixed" guarantee is, strictly, traded for frame sharing. Real-time
// users wanting the strict guarantee should lock writable regions, which
// always pin private frames.
func (r *region) LockInMemory() error {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	if r.locked {
		return nil
	}
	mode := gmi.ProtRead
	if r.prot&gmi.ProtWrite != 0 {
		mode = gmi.ProtWrite
	}
	for o := int64(0); o < r.size; o += p.pageSize {
		va := r.addr + gmi.VA(o)
		for {
			var pg *page
			var err error
			if mode == gmi.ProtWrite {
				pg, err = p.ownWritablePage(r.cache, r.coff+o)
			} else {
				pg, err = p.ensureResident(r.cache, r.coff+o, gmi.ProtRead, nil)
			}
			if err != nil {
				r.unlockAllLocked()
				return err
			}
			if pg.busy {
				p.waitBusy(pg, nil)
				continue
			}
			pg.pin++
			r.pins = append(r.pins, pg)
			p.policyRemove(pg)
			prot := r.prot
			if mode != gmi.ProtWrite {
				prot &^= gmi.ProtWrite
			} else {
				pg.dirty = true
			}
			p.mapPage(r.ctx, r, va, pg, prot)
			break
		}
	}
	r.locked = true
	return nil
}

// Unlock implements gmi.Region.
func (r *region) Unlock() error {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	if !r.locked {
		return nil
	}
	r.unlockAllLocked()
	return nil
}

func (r *region) unlockAllLocked() {
	p := r.ctx.pvm
	for _, pg := range r.pins {
		if pg.pin > 0 {
			pg.pin--
			if pg.pin == 0 && pg.frame != nil {
				p.policyInsert(pg)
			}
		}
	}
	r.pins = nil
	r.locked = false
}

// Destroy implements gmi.Region: unmap the cache from the context.
func (r *region) Destroy() error {
	p := r.ctx.pvm
	p.mu.Lock()
	defer p.unlock()
	if r.gone {
		return gmi.ErrDestroyed
	}
	r.destroyLocked()
	return nil
}

// destroyLocked removes the region; p.mu held.
func (r *region) destroyLocked() {
	p := r.ctx.pvm
	if r.gone {
		return
	}
	if r.locked {
		r.unlockAllLocked()
	}
	r.gone = true
	r.ctx.space.InvalidateRange(r.addr, int(r.size/p.pageSize))
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
	p.clock.Charge(cost.EvRegionDestroy, 1)
}
