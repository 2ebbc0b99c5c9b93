package core

import (
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
)

// This file implements the history-object machinery of section 4.2:
// building the history tree on each large deferred copy, keeping sources
// alive as zombies while descendants need them, and the working-object
// collapse garbage collection the paper describes as the (rare) remaining
// cleanup case in section 4.2.5.

// historyBound is the "whole cache" coverage used by working objects.
const historyBound = int64(1) << 62

// attachHistory wires the history-tree bookkeeping for a large deferred
// copy of [soff, soff+size) of src into dst at doff (sections 4.2.2 and
// 4.2.3); p.mu held. On return, dst reads through the tree and src's
// resident pages in the fragment are write-protected.
func (p *PVM) attachHistory(src *cache, soff int64, dst *cache, doff, size int64) {
	p.clock.Charge(cost.EvTreeInsert, 1)
	p.obs.Emit(obs.KindHistoryInsert, int64(src.id), int64(dst.id))
	// Detach the destination's stale inheritance first. The reap cascade
	// this can trigger — freeing dead intermediate caches whose last
	// reader was this fragment, collapsing working objects, clearing
	// vestigial history pointers (possibly src's own) — must settle
	// BEFORE the new tree wiring is decided, or the wiring could
	// reference a cache the cascade frees.
	p.removeParentRange(dst, doff, size)
	if src.history == nil && dst.histOwner == nil {
		// The simple case (Figure 3.a/b): the copy itself becomes the
		// source's history object. (A destination that is already some
		// other cache's history cannot take the role twice; that case
		// gets a working object below.)
		src.history = dst
		src.histOff = doff - soff
		src.histLo, src.histHi = soff, soff+size
		dst.histOwner = src
		p.addParent(dst, doff, size, src, soff)
	} else {
		// Insert a working object between the source and its
		// descendants to preserve the shape invariant (Figure 3.c/d).
		w := p.newCache(nil, true)
		w.working = true
		w.zombie = true
		p.addParent(w, 0, historyBound, src, 0)

		if oldH := src.history; oldH != nil {
			for i := range oldH.parents {
				if oldH.parents[i].parent == src {
					oldH.parents[i].parent = w
					src.nchildren--
					w.nchildren++
				}
			}
			oldH.histOwner = nil
		}
		w.histOwner = src
		src.history = w
		src.histOff = 0
		src.histLo, src.histHi = 0, historyBound
		p.addParent(dst, doff, size, w, soff)
	}

	// Eagerly write-protect the source's resident pages in the copied
	// fragment (the paper's copy-time protection; Mach defers this,
	// which is why the 0-page column of Table 7 differs in shape).
	end := soff + size
	for pg := src.pageHead; pg != nil; pg = pg.nextInCache {
		if pg.off < soff || pg.off >= end {
			continue
		}
		if p.historyWants(src, pg.off) {
			// Protect even if a previous (now dead) copy already left
			// the page flagged: the pmap operation happens per copy,
			// which is the per-page cost of section 5.3.2.
			pg.cowProtected = true
			p.protectMappings(pg, gmi.ProtRead|gmi.ProtExec|gmi.ProtSystem)
		}
	}
}

// historyWants reports whether c's history object still inherits the
// content of (c, off) — i.e. pushing the original version there is both
// needed (the history has no version of its own) and safe (the history's
// view of that offset still resolves through c; a later copy or explicit
// write into the history may have redirected it, in which case a push
// would clobber newer content). p.mu held.
func (p *PVM) historyWants(c *cache, off int64) bool {
	h := c.history
	if h == nil || !c.histCovers(off) {
		return false
	}
	hoff := c.histTranslate(off)
	if p.gmapGet(pageKey{h, hoff}) != nil {
		// Own page, per-page stub or in-transit fragment: the history
		// no longer reads this offset through c.
		return false
	}
	pr := h.findParent(hoff)
	return pr != nil && pr.parent == c && pr.translate(hoff) == off
}

// maybeReapParent runs after a cache lost a child reference: zombies with
// no remaining readers are freed, and dead intermediate nodes (working
// objects, and exited sources in the paper's fork-exit-fork chains) with a
// single remaining child are collapsed out of the tree; p.mu held.
func (p *PVM) maybeReapParent(c *cache) {
	if c.zombie && c.nchildren == 0 && len(c.regions) == 0 {
		p.freeCache(c)
		return
	}
	if c.zombie && c.nchildren == 1 && len(c.regions) == 0 && p.collapse {
		p.tryCollapse(c)
	}
}

// tryCollapse splices a dead intermediate cache (a working object, or an
// exited copy source kept as a zombie) with a single remaining child out
// of the history tree: the child inherits the node's pages and its parent
// (section 4.2.5's merge). Collapse is attempted only in the common affine
// case — one identity-translated fragment — and silently skipped otherwise
// (skipping is always correct, merely less tidy).
func (p *PVM) tryCollapse(w *cache) {
	if w.nchildren != 1 || len(w.regions) != 0 || w.remoteStubs != nil && len(w.remoteStubs) > 0 {
		return
	}
	if w.stubsAt != nil && len(w.stubsAt) > 0 {
		return // the node still reads through per-page stubs; keep it
	}
	// Find the single child and its fragment.
	var ch *cache
	var frag *parentRange
	for other := range p.caches {
		if other == w {
			continue
		}
		for i := range other.parents {
			if other.parents[i].parent == w {
				if ch != nil {
					return // more than one referencing fragment
				}
				ch = other
				frag = &other.parents[i]
			}
		}
	}
	if ch == nil || frag == nil || ch == w {
		return
	}
	if frag.poff != frag.off {
		return // non-identity translation; skip
	}
	// Where does the child read past w? Either through w's own single
	// identity parent fragment, or — for a rootless zero-fill temporary —
	// nowhere: absent pages are zero either way.
	var gp *cache
	switch {
	case len(w.parents) == 0 && w.seg == nil:
		gp = nil
	case len(w.parents) == 1 && w.parents[0].poff == w.parents[0].off && w.parents[0].parent != ch:
		gp = w.parents[0].parent
	default:
		return
	}

	// Bail while any page is unmovable; a later reap retries.
	for pg := w.pageHead; pg != nil; pg = pg.nextInCache {
		if pg.busy || pg.pin > 0 {
			return
		}
	}
	for pg := w.pageHead; pg != nil; {
		next := pg.nextInCache
		inFrag := pg.off >= frag.poff && pg.off < frag.poff+frag.size
		if pg.stubs != nil {
			p.migratePageToStubs(pg)
		} else if inFrag && p.ownPage(ch, pg.off) == nil {
			p.retagPage(pg, ch, pg.off)
		} else {
			p.dropPage(pg)
		}
		pg = next
	}

	// If w was somebody's history, the child takes over, with coverage
	// narrowed to what the child can actually read.
	if owner := w.histOwner; owner != nil && owner.history == w {
		owner.history = ch
		owner.histOff = frag.off - frag.poff // zero in the identity case
		if owner.histLo < frag.poff {
			owner.histLo = frag.poff
		}
		if owner.histHi > frag.poff+frag.size {
			owner.histHi = frag.poff + frag.size
		}
		ch.histOwner = owner
	}
	w.histOwner = nil
	// If the child was w's history (an exited source), that relationship
	// dies with w.
	if w.history != nil && w.history.histOwner == w {
		w.history.histOwner = nil
	}
	w.history = nil

	if gp != nil {
		// The child's fragment re-points past w to the grandparent;
		// w's own reference to gp transfers to the child, so the
		// counts cancel.
		frag.parent = gp
		w.nchildren--
		w.parents = nil
		delete(p.caches, w)
		p.clock.Charge(cost.EvCacheDestroy, 1)
		atomic.AddUint64(&p.stats.Collapses, 1)
		p.obs.Emit(obs.KindHistoryCollapse, int64(w.id), 0)
		// The grandparent may itself be a dead single-child node now.
		p.maybeReapParent(gp)
		return
	}
	// Rootless temporary: the child stands alone; dropping its fragment
	// releases w's last reference, reaping it.
	off, size := frag.off, frag.size
	atomic.AddUint64(&p.stats.Collapses, 1)
	p.obs.Emit(obs.KindHistoryCollapse, int64(w.id), 0)
	p.removeParentRange(ch, off, size)
}

// retagPage moves a resident page to a new cache/offset without copying
// (the frame itself migrates); p.mu held.
func (p *PVM) retagPage(pg *page, dst *cache, off int64) {
	p.invalidateMappings(pg)
	p.unlinkPage(pg)
	pg.off = off
	pg.dirty = true
	for st := pg.stubs; st != nil; st = st.nextForPage {
		st.srcCache, st.srcOff = dst, off
	}
	p.addPage(dst, pg)
}

// migratePageToStubs hands a dying page's frame to its first stub reader
// (no copy: the dying owner does not need a private version), re-pointing
// the remaining stubs; p.mu held.
func (p *PVM) migratePageToStubs(pg *page) {
	st0 := pg.stubs
	pg.stubs = st0.nextForPage
	p.detachStubEntry(st0)
	rest := pg.stubs
	pg.stubs = nil

	p.invalidateMappings(pg)
	p.unlinkPage(pg)
	pg.off = st0.dstOff
	pg.granted = gmi.ProtRWX
	pg.dirty = true
	p.addPage(st0.dstCache, pg)
	p.afterResident(st0.dstCache, pg)

	for st := rest; st != nil; {
		next := st.nextForPage
		st.src = pg
		st.srcCache, st.srcOff = st0.dstCache, st0.dstOff
		st.nextForPage = pg.stubs
		pg.stubs = st
		st = next
	}
	if pg.stubs != nil {
		p.protectMappings(pg, gmi.ProtRead|gmi.ProtExec|gmi.ProtSystem)
	}
}

// dropPage frees a resident page outright; p.mu held. The caller has
// dealt with stub readers and history preservation, and has waited out
// any push: once waitBusy releases the lock, the pusher may drop the
// page itself, so only the caller, by looking the page up again, can
// tell whether there is still something to drop.
func (p *PVM) dropPage(pg *page) {
	p.mem.Free(p.unlinkResident(pg))
}

// unlinkResident takes a resident page out of memory — mappings, global
// map, cache list, policy — and hands its frame to the caller, who frees
// it (reclaim returns a whole pass's frames in one phys.FreeBatch). p.mu
// held; the page must not be busy (see dropPage).
func (p *PVM) unlinkResident(pg *page) *phys.Frame {
	if pg.busy {
		panic("core: dropping a page being pushed out")
	}
	p.invalidateMappings(pg)
	p.unlinkPage(pg)
	f := pg.frame
	pg.frame = nil
	return f
}

// detachStubEntry removes a per-page stub from the global map and the
// destination cache's index, without touching its source threading (the
// caller owns that); p.mu held.
func (p *PVM) detachStubEntry(st *cowStub) {
	if cur := p.gmapGet(pageKey{st.dstCache, st.dstOff}); cur == mapEntry(st) {
		p.gmapDelete(pageKey{st.dstCache, st.dstOff})
	}
	if st.dstCache.stubsAt != nil {
		delete(st.dstCache.stubsAt, st.dstOff)
	}
}

// removeStub fully removes a stub: source threading, global map, index.
func (p *PVM) removeStub(st *cowStub) {
	p.unthreadStub(st)
	p.detachStubEntry(st)
}

// freeCache tears a cache down once nothing references it; p.mu held (may
// be released while materializing remote stubs).
func (p *PVM) freeCache(c *cache) {
	if c.freed {
		return
	}
	c.freed = true
	c.destroyed = true

	// Detach history relations.
	if c.histOwner != nil && c.histOwner.history == c {
		c.histOwner.history = nil
	}
	c.histOwner = nil
	if c.history != nil && c.history.histOwner == c {
		c.history.histOwner = nil
	}
	c.history = nil

	// Stubs this cache holds as a destination simply disappear with it.
	for _, st := range c.stubsAt {
		p.removeStub(st)
	}
	c.stubsAt = nil

	// Stubs elsewhere reading this cache's content must keep it: migrate
	// resident pages with readers, materialize the not-resident ones.
	// The reaping flag lets pull-ins (and their fillUp answers) through
	// the freed guard while the content is recovered. The loop re-picks
	// an offset each round because materialization can release the lock.
	c.reaping = true
	for len(c.remoteStubs) > 0 {
		var off int64
		for o := range c.remoteStubs {
			off = o
			break
		}
		src, err := p.ensureResident(c, off, gmi.ProtRead, nil)
		if err == nil && src != nil {
			if _, merr := p.materializeRemoteStubs(c, off, src); merr != nil {
				err = merr
			}
		}
		if err != nil {
			// Unrecoverable content: drop the stubs so readers fault
			// cleanly instead of looping.
			for st := c.remoteStubs[off]; st != nil; st = st.nextForPage {
				p.detachStubEntry(st)
			}
			delete(c.remoteStubs, off)
		}
	}

	for c.pageHead != nil {
		pg := c.pageHead
		if pg.busy {
			// The pusher settles the page (drops it, or leaves it
			// resident) before the wait returns; re-read the list.
			p.waitBusy(pg, nil)
			continue
		}
		if pg.stubs != nil {
			p.migratePageToStubs(pg)
		} else {
			p.dropPage(pg)
		}
	}
	c.reaping = false

	p.dropAllParents(c)

	// A segment acquired unilaterally (via segmentCreate) dies with its
	// cache: p.unlock releases it (its backing pages and its engine's
	// workers) once p.mu is dropped, so swap does not leak.
	if c.segOwned {
		p.released = append(p.released, c.seg)
		c.segOwned = false
	}

	delete(p.caches, c)
	p.clock.Charge(cost.EvCacheDestroy, 1)
}
