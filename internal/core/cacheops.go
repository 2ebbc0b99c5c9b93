package core

import (
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// This file implements the Table 4 cache-management downcalls: the
// operations segment managers use to provide data (fillUp), retrieve it
// (copyBack/moveBack) and control caching (flush, sync, invalidate,
// setProtection, lockInMemory).

// FillUp implements gmi.Cache: a segment manager provides data for a
// fragment (a fill of a pullIn's whole run lands in the request's frames
// instead, see fillShim). Data is installed page by page; a
// trailing partial page is zero-filled. Resident dirty pages are left
// alone: the cache holds newer data than the segment.
func (c *cache) FillUp(off int64, data []byte, mode gmi.Prot) error {
	p := c.pvm
	if !p.pageAligned(off) {
		return gmi.ErrBadRange
	}
	p.mu.Lock()
	defer p.unlock()
	if c.freed && !c.reaping {
		return gmi.ErrDestroyed
	}
	for done := int64(0); done < int64(len(data)); done += p.pageSize {
		chunk := data[done:min64(done+p.pageSize, int64(len(data)))]
		if err := p.fillPage(c, off+done, chunk, mode); err != nil {
			return err
		}
	}
	return nil
}

// fillPage installs one page of segment data; p.mu held, may be released
// while reserving a frame or filling the frame's content.
func (p *PVM) fillPage(c *cache, off int64, chunk []byte, mode gmi.Prot) error {
	for {
		switch e := p.gmapGet(pageKey{c, off}).(type) {
		case *page:
			if e.busy {
				p.waitBusy(e, nil)
				continue
			}
			if e.dirty {
				return nil // cache is newer; drop the fill
			}
			copy(e.frame.Data[:len(chunk)], chunk)
			p.clock.Charge(cost.EvBcopyPage, 1)
			e.granted |= mode
			return nil
		case *cowStub:
			// Explicit fill overrides the deferred copy.
			p.removeStub(e)
			continue
		case *syncStub:
			if e.out != nil {
				p.waitStub(e, nil)
				continue
			}
			// A fill in flight: this explicit fill replaces its stub and
			// wakes its waiters; the fill's completion frees its frame.
			err := p.installFilled(c, off, chunk, mode)
			if err == nil {
				p.settleStub(e)
			}
			return err
		case nil:
			return p.installFilled(c, off, chunk, mode)
		}
	}
}

// installFilled allocates and fills a fresh page; p.mu held, released
// transiently for reservation and for the frame's bzero/bcopy (the bulk
// of the fill cost — the frame is private until published, tracked by
// inFlightFrames for the accounting invariant). The segment explicitly
// provided this data, which supersedes any inherited view of the offset.
// A competing fill that won while the lock was out stands.
func (p *PVM) installFilled(c *cache, off int64, chunk []byte, mode gmi.Prot) error {
	p.supersedeParent(c, off)
	release, err := p.reserveFrames(1)
	if err != nil {
		return err
	}
	defer release()
	if p.ownPage(c, off) != nil {
		return nil
	}
	f, err := p.mem.Alloc()
	if err != nil {
		return err
	}
	atomic.AddInt64(&p.inFlightFrames, 1)
	p.mu.Unlock()
	if len(chunk) < len(f.Data) {
		p.mem.Zero(f)
	}
	copy(f.Data, chunk)
	p.clock.Charge(cost.EvBcopyPage, 1)
	p.mu.Lock()
	if p.ownPage(c, off) != nil {
		p.mem.Free(f)
		atomic.AddInt64(&p.inFlightFrames, -1)
		return nil
	}
	pg := &page{frame: f, off: off, granted: mode}
	if old := p.gmapGet(pageKey{c, off}); old != nil {
		if st, isStub := old.(*cowStub); isStub {
			p.removeStub(st)
		} else {
			p.gmapDelete(pageKey{c, off})
		}
	}
	p.addPage(c, pg)
	atomic.AddInt64(&p.inFlightFrames, -1)
	p.afterResident(c, pg)
	return nil
}

// CopyBack implements gmi.Cache: a segment manager retrieves cached data,
// normally while servicing a pushOut upcall. Busy pages are readable:
// that is precisely the push-out protocol.
func (c *cache) CopyBack(off int64, buf []byte) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	for done := int64(0); done < int64(len(buf)); done += p.pageSize {
		end := min64(done+p.pageSize, int64(len(buf)))
		po := p.pageFloor(off + done)
		pg := p.ownPage(c, po)
		if pg == nil {
			// Nothing cached: the segment's own content stands.
			clear(buf[done:end])
			continue
		}
		b := off + done - po
		copy(buf[done:end], pg.frame.Data[b:b+(end-done)])
		p.clock.Charge(cost.EvBcopyPage, 1)
	}
	return nil
}

// MoveBack implements gmi.Cache: CopyBack, releasing the frames. It is
// callable on busy pages (it completes the push that marked them busy).
func (c *cache) MoveBack(off int64, buf []byte) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	for done := int64(0); done < int64(len(buf)); done += p.pageSize {
		end := min64(done+p.pageSize, int64(len(buf)))
		po := p.pageFloor(off + done)
		pg := p.ownPage(c, po)
		if pg == nil {
			clear(buf[done:end])
			continue
		}
		b := off + done - po
		copy(buf[done:end], pg.frame.Data[b:b+(end-done)])
		p.clock.Charge(cost.EvBcopyPage, 1)
		if pg.pin > 0 {
			continue // pinned frames stay
		}
		p.moveStubsToRemote(pg)
		p.invalidateMappings(pg)
		p.unlinkPage(pg)
		p.mem.Free(pg.frame)
		pg.frame = nil
	}
	return nil
}

// Flush implements gmi.Cache: write modified data back and release the
// frames (Table 4). Deferred copies in the range are materialized first so
// the segment receives the cache's logical content.
func (c *cache) Flush(off, size int64) error {
	return c.pvm.writeBack(c, off, size, true)
}

// Sync implements gmi.Cache: write modified data back, keep it cached.
func (c *cache) Sync(off, size int64) error {
	return c.pvm.writeBack(c, off, size, false)
}

func (p *PVM) writeBack(c *cache, off, size int64, release bool) error {
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed {
		return gmi.ErrDestroyed
	}
	lo, hi := p.pageFloor(off), p.pageCeilClamped(off, size)
	// Work over the offsets the cache actually holds (resident pages and
	// deferred-copy stubs), not the nominal range: segments are sparse
	// and whole-cache flushes pass huge ranges.
	for _, o := range p.offsetsInRange(c, lo, hi) {
		for {
			e := p.gmapGet(pageKey{c, o})
			if st, isStub := e.(*cowStub); isStub {
				// Materialize the deferred copy so it can be written.
				if _, err := p.breakStub(c, o, st, nil); err != nil {
					return err
				}
				continue
			}
			if ss, isSync := e.(*syncStub); isSync {
				p.waitStub(ss, nil)
				continue
			}
			pg, _ := e.(*page)
			if pg == nil {
				break
			}
			if pg.busy {
				p.waitBusy(pg, nil)
				continue
			}
			if pg.dirty {
				var err error
				if c.seg == nil {
					err = p.assignSwap(c)
				} else {
					err = p.pushPages([]*page{pg})[0]
				}
				if err != nil {
					return err
				}
				continue
			}
			if release && pg.pin == 0 {
				p.moveStubsToRemote(pg)
				p.dropPage(pg)
			}
			break
		}
	}
	return nil
}

// pageCeilClamped computes the exclusive page-aligned end of [off,
// off+size) without overflowing for "whole cache" sizes.
func (p *PVM) pageCeilClamped(off, size int64) int64 {
	if size > (1<<62)-off {
		return 1 << 62
	}
	return p.pageCeil(off + size)
}

// offsetsInRange snapshots the offsets at which the cache holds resident
// pages or deferred-copy stubs within [lo, hi); p.mu held.
func (p *PVM) offsetsInRange(c *cache, lo, hi int64) []int64 {
	var out []int64
	for pg := c.pageHead; pg != nil; pg = pg.nextInCache {
		if pg.off >= lo && pg.off < hi {
			out = append(out, pg.off)
		}
	}
	for o := range c.stubsAt {
		if o >= lo && o < hi {
			out = append(out, o)
		}
	}
	return out
}

// Invalidate implements gmi.Cache: discard cached data in the range
// without writing it back. Content still needed by deferred copies is
// preserved for them first; pinned pages refuse with ErrLocked.
func (c *cache) Invalidate(off, size int64) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	lo, hi := p.pageFloor(off), p.pageCeilClamped(off, size)
	for _, o := range p.offsetsInRange(c, lo, hi) {
		for {
			e := p.gmapGet(pageKey{c, o})
			if ss, isSync := e.(*syncStub); isSync {
				p.waitStub(ss, nil)
				continue
			}
			if st, isStub := e.(*cowStub); isStub {
				p.removeStub(st)
				break
			}
			pg, _ := e.(*page)
			if pg == nil {
				break
			}
			if pg.busy {
				p.waitBusy(pg, nil)
				continue
			}
			if pg.pin > 0 {
				return gmi.ErrLocked
			}
			if pg.cowProtected && p.historyWants(c, o) {
				if _, err := p.clonePageInto(c.history, c.histTranslate(o), pg, nil); err != nil {
					return err
				}
				atomic.AddUint64(&p.stats.HistoryPushes, 1)
				continue
			}
			pg.cowProtected = false
			p.moveStubsToRemote(pg)
			p.dropPage(pg)
			break
		}
	}
	return nil
}

// SetProtection implements gmi.Cache: cap the access mode of cached data
// (a coherence mapper revokes write access this way).
func (c *cache) SetProtection(off, size int64, prot gmi.Prot) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	lo, hi := p.pageFloor(off), p.pageCeilClamped(off, size)
	for _, o := range p.offsetsInRange(c, lo, hi) {
		pg := p.ownPage(c, o)
		if pg == nil {
			continue
		}
		if prot&gmi.ProtWrite == 0 {
			pg.revokes++
		}
		pg.granted &= prot
		if prot&gmi.ProtRead == 0 {
			p.invalidateMappings(pg)
		} else {
			p.protectMappings(pg, prot|gmi.ProtSystem)
		}
	}
	return nil
}

// LockInMemory implements gmi.Cache: pin the range into real memory,
// pulling data in as needed (Table 4; it may cause pullIns).
func (c *cache) LockInMemory(off, size int64) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed {
		return gmi.ErrDestroyed
	}
	lo, hi := p.pageFloor(off), p.pageCeil(off+size)
	for o := lo; o < hi; o += p.pageSize {
		for {
			pg := p.ownPage(c, o)
			if pg == nil {
				if _, err := p.ownWritablePage(c, o); err != nil {
					return err
				}
				continue
			}
			if pg.busy {
				p.waitBusy(pg, nil)
				continue
			}
			pg.pin++
			p.policyRemove(pg)
			break
		}
	}
	return nil
}

// Unlock implements gmi.Cache: release a LockInMemory pin.
func (c *cache) Unlock(off, size int64) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	lo, hi := p.pageFloor(off), p.pageCeil(off+size)
	for o := lo; o < hi; o += p.pageSize {
		if pg := p.ownPage(c, o); pg != nil && pg.pin > 0 {
			pg.pin--
			if pg.pin == 0 {
				p.policyInsert(pg)
			}
		}
	}
	return nil
}

// Destroy implements gmi.Cache. Regions still mapping the cache are
// destroyed with it; if deferred copies still read through the cache it
// lingers as a zombie until the last of them goes (section 4.2.2's
// "remaining unmodified source data must be kept until the copy is
// deleted").
func (c *cache) Destroy() error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed {
		return gmi.ErrDestroyed
	}
	c.destroyed = true
	for len(c.regions) > 0 {
		c.regions[len(c.regions)-1].destroyLocked()
	}
	if c.nchildren > 0 {
		c.zombie = true
		atomic.AddUint64(&p.stats.Zombies, 1)
		// A dead source with a single child may splice out of the tree
		// immediately (the fork-exit merge of section 4.2.5).
		p.maybeReapParent(c)
		return nil
	}
	p.freeCache(c)
	return nil
}
