package core

import (
	"fmt"
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
)

// This file implements the Table 1 data-access operations: cache.copy and
// cache.move, choosing between the history-object technique (large
// fragments, section 4.2), per-virtual-page stubs (small fragments,
// section 4.3) and a physical byte copy (unaligned or same-cache
// transfers), plus the explicit ReadAt/WriteAt access path.

// Copy implements gmi.Cache.
func (c *cache) Copy(dst gmi.Cache, dstOff, srcOff, size int64) error {
	d, ok := dst.(*cache)
	if !ok {
		return fmt.Errorf("core: foreign destination cache %T", dst)
	}
	if size < 0 || srcOff < 0 || dstOff < 0 {
		return gmi.ErrBadRange
	}
	if size == 0 {
		return nil
	}
	p := c.pvm
	start := p.obs.Clock()
	defer p.obs.Span(obs.KindCopy, obs.OpCopy, int64(c.id), size, start)
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed || d.destroyed {
		return gmi.ErrDestroyed
	}
	aligned := p.pageAligned(srcOff) && p.pageAligned(dstOff) && p.pageAligned(size)
	switch {
	case c == d || !aligned:
		return p.copyPhysical(c, srcOff, d, dstOff, size)
	case size <= p.smallMax:
		return p.copySmall(c, srcOff, d, dstOff, size)
	default:
		return p.copyLarge(c, srcOff, d, dstOff, size)
	}
}

// Move implements gmi.Cache: Copy with the source contents becoming
// undefined, letting resident pages be retagged to the destination
// instead of copied (section 3.3.1).
func (c *cache) Move(dst gmi.Cache, dstOff, srcOff, size int64) error {
	d, ok := dst.(*cache)
	if !ok {
		return fmt.Errorf("core: foreign destination cache %T", dst)
	}
	if size < 0 || srcOff < 0 || dstOff < 0 {
		return gmi.ErrBadRange
	}
	if size == 0 {
		return nil
	}
	p := c.pvm
	start := p.obs.Clock()
	defer p.obs.Span(obs.KindMove, obs.OpMove, int64(c.id), size, start)
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed || d.destroyed {
		return gmi.ErrDestroyed
	}
	if c == d || !p.pageAligned(srcOff) || !p.pageAligned(dstOff) || !p.pageAligned(size) {
		return p.copyPhysical(c, srcOff, d, dstOff, size)
	}
	return p.moveLarge(c, srcOff, d, dstOff, size)
}

// copyLarge defers a large copy with the history-object technique.
func (p *PVM) copyLarge(src *cache, soff int64, dst *cache, doff, size int64) error {
	for o := int64(0); o < size; o += p.pageSize {
		inPlace, err := p.prepareOverwrite(dst, doff+o)
		if err != nil {
			return err
		}
		if inPlace != nil {
			// Locked destination page: its mapping must not change, so
			// this page is copied physically, now.
			if err := p.copyIntoFrame(inPlace, src, soff+o); err != nil {
				return err
			}
		}
	}
	p.attachHistory(src, soff, dst, doff, size)
	return nil
}

// copySmall defers a small copy with per-virtual-page stubs.
func (p *PVM) copySmall(src *cache, soff int64, dst *cache, doff, size int64) error {
	for o := int64(0); o < size; o += p.pageSize {
		if p.resolvesTo(src, soff+o, dst, doff+o) {
			continue // identity: the destination already holds this
		}
		inPlace, err := p.prepareOverwrite(dst, doff+o)
		if err != nil {
			return err
		}
		if inPlace != nil {
			if err := p.copyIntoFrame(inPlace, src, soff+o); err != nil {
				return err
			}
			continue
		}
		if err := p.installStub(dst, doff+o, src, soff+o); err != nil {
			return err
		}
	}
	return nil
}

// moveLarge transfers page-aligned content by retagging the source's
// resident frames into the destination; the source contents become
// undefined. Content not resident in the source itself is materialized
// first (pulled in, or copied from the ancestor holding it) rather than
// left as a deferred link: a move must not leave the destination reading
// through the source, because the source is free to be reused — deferred
// links from moves are how parent-fragment cycles would form.
func (p *PVM) moveLarge(src *cache, soff int64, dst *cache, doff, size int64) error {
	identity := make(map[int64]bool)
	for o := int64(0); o < size; o += p.pageSize {
		if p.resolvesTo(src, soff+o, dst, doff+o) {
			identity[o] = true // the destination already holds this
			continue
		}
		inPlace, err := p.prepareOverwrite(dst, doff+o)
		if err != nil {
			return err
		}
		if inPlace != nil {
			if err := p.copyIntoFrame(inPlace, src, soff+o); err != nil {
				return err
			}
		}
	}

	for o := int64(0); o < size; o += p.pageSize {
		if identity[o] {
			continue
		}
		for iter := 0; ; iter++ {
			if iter > 1000 {
				panic("core: moveLarge livelock")
			}
			if p.ownPage(dst, doff+o) != nil {
				break // pinned in-place copy above already took it
			}
			pg := p.ownPage(src, soff+o)
			if pg == nil {
				occupied := p.gmapGet(pageKey{src, soff + o}) != nil
				if !occupied && src.findParent(soff+o) == nil && src.seg == nil {
					// The source holds nothing — no page, no deferred
					// stub, no parent, no segment: the moved content is
					// zeros. An empty destination slot only means the
					// same thing if the destination has no segment
					// holding older data there.
					if dst.seg == nil {
						break
					}
					zpg, err := p.zeroPageInto(dst, doff+o, nil)
					if err != nil {
						return err
					}
					_ = zpg
					continue
				}
				// Materialize the content; if it lands at the source's
				// own key the next pass retags it. Anywhere else — an
				// ancestor's page, or a stub-designated page at another
				// offset — the holder keeps its frame and the
				// destination gets a copy.
				content, err := p.ensureResident(src, soff+o, gmi.ProtRead, nil)
				if err != nil {
					return err
				}
				if content.cache != src || content.off != soff+o {
					if _, err := p.clonePageInto(dst, doff+o, content, nil); err != nil {
						return err
					}
				}
				continue
			}
			if pg.busy {
				p.waitBusy(pg, nil)
				continue
			}
			if pg.pin > 0 {
				// Pinned source frame stays; the destination gets a
				// copy instead.
				if _, err := p.clonePageInto(dst, doff+o, pg, nil); err != nil {
					return err
				}
				continue
			}
			// The original must survive for the source's history
			// children before the frame leaves.
			if pg.cowProtected {
				if p.historyWants(src, soff+o) {
					if _, err := p.clonePageInto(src.history, src.histTranslate(soff+o), pg, nil); err != nil {
						return err
					}
					atomic.AddUint64(&p.stats.HistoryPushes, 1)
					continue
				}
				pg.cowProtected = false
			}
			// Per-page stub readers must keep the content too.
			if pg.stubs != nil {
				if err := p.transferToStubs(pg, nil); err != nil {
					return err
				}
				continue
			}
			p.retagPage(pg, dst, doff+o)
			break
		}
	}
	return nil
}

// copyIntoFrame physically copies the logical content of (src, soff) into
// an existing destination page's frame (used for pinned destinations).
func (p *PVM) copyIntoFrame(dst *page, src *cache, soff int64) error {
	s, err := p.ensureResident(src, soff, gmi.ProtRead, nil)
	if err != nil {
		return err
	}
	if s == nil {
		return gmi.ErrBadRange
	}
	p.mem.CopyFrame(dst.frame, s.frame)
	dst.dirty = true
	return nil
}

// prepareOverwrite clears one destination page slot for incoming content:
// the current logical content is preserved for whoever still needs it (the
// destination's history object, per-page stub readers), then the slot is
// emptied. If the destination page is pinned, it is returned for in-place
// overwrite instead. May release the lock.
func (p *PVM) prepareOverwrite(dst *cache, off int64) (*page, error) {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("core: prepareOverwrite livelock")
		}
		e := p.gmapGet(pageKey{dst, off})
		if ss, isSync := e.(*syncStub); isSync {
			p.waitStub(ss, nil)
			continue
		}
		own, _ := e.(*page)
		if own != nil && own.busy {
			p.waitBusy(own, nil)
			continue
		}

		// Preserve the pre-copy content for the history object.
		if p.historyWants(dst, off) {
			src, err := p.ensureResident(dst, off, gmi.ProtRead, nil)
			if err != nil {
				return nil, err
			}
			if src == nil {
				continue
			}
			if _, err := p.clonePageInto(dst.history, dst.histTranslate(off), src, nil); err != nil {
				return nil, err
			}
			atomic.AddUint64(&p.stats.HistoryPushes, 1)
			continue
		}
		// Preserve it for per-page stub readers of not-resident content.
		if dst.remoteStubs != nil {
			if _, waiting := dst.remoteStubs[off]; waiting {
				src, err := p.ensureResident(dst, off, gmi.ProtRead, nil)
				if err != nil {
					return nil, err
				}
				if src == nil {
					continue
				}
				if _, err := p.materializeRemoteStubs(dst, off, src); err != nil {
					return nil, err
				}
				continue
			}
		}
		// And for stub readers threaded on the resident page.
		if own != nil && own.stubs != nil {
			if own.pin > 0 {
				if err := p.transferToStubs(own, nil); err != nil {
					return nil, err
				}
			} else {
				p.migratePageToStubs(own)
			}
			continue
		}

		switch cur := e.(type) {
		case *cowStub:
			p.removeStub(cur)
			continue
		case *page:
			if cur.pin > 0 {
				cur.cowProtected = false
				return cur, nil
			}
			p.dropPage(cur)
			continue
		default:
			// The slot is clear. Regions showing this offset may still
			// hold read-through translations to an ancestor's frame
			// (recorded on that page's rmap, which this overwrite does
			// not visit); they must fault again to see the new
			// content.
			p.invalidateRegionMappings(dst, off)
			return nil, nil
		}
	}
}

// invalidateRegionMappings removes the hardware translations of every
// region window onto (c, off); used when the logical content of the
// offset changes identity under a copy or move.
func (p *PVM) invalidateRegionMappings(c *cache, off int64) {
	for _, r := range c.regions {
		if off >= r.coff && off < r.coff+r.size {
			r.ctx.spaceMu.Lock()
			r.ctx.space.Unmap(r.addr + gmi.VA(off-r.coff))
			r.ctx.spaceMu.Unlock()
		}
	}
}

// ownWritablePage makes (c, off) an owned, writable page with all
// deferred-copy duties discharged — the write-fault path minus the MMU
// mapping, used by explicit writes.
func (p *PVM) ownWritablePage(c *cache, off int64) (*page, error) {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("core: ownWritablePage livelock")
		}
		switch e := p.gmapGet(pageKey{c, off}).(type) {
		case *page:
			if e.busy {
				p.waitBusy(e, nil)
				continue
			}
			restarted, err := p.breakOwnForWrite(c, off, e, nil)
			if err != nil {
				return nil, err
			}
			if restarted {
				continue
			}
			return e, nil
		case *syncStub:
			p.waitStub(e, nil)
			continue
		case *cowStub:
			if _, err := p.breakStub(c, off, e, nil); err != nil {
				return nil, err
			}
			continue
		case nil:
			if pr := c.findParent(off); pr != nil {
				if _, err := p.materializePrivate(c, off, nil); err != nil {
					return nil, err
				}
				continue
			}
			if err := p.bringIn(c, off, gmi.ProtRW, nil); err != nil {
				return nil, err
			}
			continue
		}
	}
}

// copyPhysical copies bytes immediately (unaligned or same-cache copies,
// and the bcopy path of IPC transfers).
func (p *PVM) copyPhysical(src *cache, soff int64, dst *cache, doff, size int64) error {
	p.clock.Charge(cost.EvBcopyByte, int(size))
	buf := make([]byte, min64(size, 64<<10))
	for done := int64(0); done < size; {
		n := min64(size-done, int64(len(buf)))
		if err := p.readAtLocked(src, soff+done, buf[:n]); err != nil {
			return err
		}
		if err := p.writeAtLocked(dst, doff+done, buf[:n]); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReadAt implements gmi.Cache: explicit data access out of the cache.
func (c *cache) ReadAt(off int64, buf []byte) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed {
		return gmi.ErrDestroyed
	}
	p.clock.Charge(cost.EvBcopyByte, len(buf))
	return p.readAtLocked(c, off, buf)
}

// WriteAt implements gmi.Cache: explicit data access into the cache.
func (c *cache) WriteAt(off int64, data []byte) error {
	p := c.pvm
	p.mu.Lock()
	defer p.unlock()
	if c.destroyed {
		return gmi.ErrDestroyed
	}
	p.clock.Charge(cost.EvBcopyByte, len(data))
	return p.writeAtLocked(c, off, data)
}

// readAtLocked copies the cache's logical content into buf; p.mu held
// (released transiently by residency walks).
func (p *PVM) readAtLocked(c *cache, off int64, buf []byte) error {
	for done := 0; done < len(buf); {
		cur := off + int64(done)
		po := p.pageFloor(cur)
		pg, err := p.ensureResident(c, po, gmi.ProtRead, nil)
		if err != nil {
			return err
		}
		b := cur - po
		n := min64(p.pageSize-b, int64(len(buf)-done))
		copy(buf[done:done+int(n)], pg.frame.Data[b:b+n])
		p.noteReference(pg)
		done += int(n)
	}
	return nil
}

// writeAtLocked writes data into the cache's own pages; p.mu held
// (released transiently).
func (p *PVM) writeAtLocked(c *cache, off int64, data []byte) error {
	for done := 0; done < len(data); {
		cur := off + int64(done)
		po := p.pageFloor(cur)
		pg, err := p.ownWritablePage(c, po)
		if err != nil {
			return err
		}
		b := cur - po
		n := min64(p.pageSize-b, int64(len(data)-done))
		copy(pg.frame.Data[b:b+n], data[done:done+int(n)])
		pg.dirty = true
		p.noteReference(pg)
		done += int(n)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
