package core

import (
	"sort"
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// This file defines local-cache descriptors (Figure 2): the per-segment
// object that manages the real memory in use for a segment on this site,
// the parent-fragment lists of section 4.2.4, and the history pointers of
// section 4.2.1.

// parentRange maps [off, off+size) of a cache onto its parent cache
// starting at poff. The list generalizes the single "parent" pointer so
// individual fragments may have different, arbitrary parents (section
// 4.2.4). Ranges are disjoint and sorted by off.
type parentRange struct {
	off, size int64
	parent    *cache
	poff      int64
}

// translate maps an offset of the child onto the parent.
func (r parentRange) translate(off int64) int64 { return off - r.off + r.poff }

// covers reports whether off falls inside the range.
func (r parentRange) covers(off int64) bool { return off >= r.off && off < r.off+r.size }

// cache is a local-cache descriptor.
type cache struct {
	pvm *PVM
	// id is a stable small integer used to hash global-map keys onto
	// shards (see shard.go).
	id uint64
	// listMu guards pageHead/pageTail/npages so the fast fault path can
	// link freshly resident pages while holding only p.mu.RLock plus the
	// page's shard mutex. Every other cache field is written only under
	// p.mu held exclusively.
	listMu sync.Mutex

	// seg is the bound segment; nil for a temporary (zero-fill) cache
	// until the first push-out assigns one via segmentCreate. segOwned
	// marks a segment acquired that way: the cache is its only user, so
	// cache destruction releases the segment's backing pages (the swap
	// leak fix).
	seg      gmi.Segment
	segOwned bool
	temp     bool

	// history is this cache's history object: the single immediate
	// descendant that receives the original version of pages modified in
	// this cache (section 4.2.1). histLo/histHi bound the protected
	// fragment; histOff translates a source offset into the history
	// object (src off o lands at o+histOff). histOwner is the inverse
	// pointer: the cache this cache is the history of.
	history        *cache
	histOwner      *cache
	histOff        int64
	histLo, histHi int64

	// parents lists the fragments of this cache backed by other caches.
	parents []parentRange
	// nchildren counts caches whose parent fragments reference us.
	nchildren int
	// working marks an intermediate working object (w1, w2 of Figure 3).
	working bool
	// zombie marks a destroyed cache kept alive because descendants
	// still resolve through it ("remaining unmodified source data must
	// be kept until the copy is deleted", section 4.2.2).
	zombie bool

	// pageHead/pageTail thread the cache's resident page descriptors
	// (Figure 2's doubly-linked list); npages counts them.
	pageHead, pageTail *page
	npages             int

	// regions lists the regions currently mapping this cache, so copy
	// protection reaches hardware translations.
	regions []*region

	// remoteStubs indexes, by source offset, the per-page COW stubs
	// whose source content at that offset is not resident (chained via
	// nextForPage).
	remoteStubs map[int64]*cowStub

	// stubsAt indexes, by destination offset, the per-page stubs this
	// cache holds in the global map, so teardown is O(own stubs).
	stubsAt map[int64]*cowStub

	// protCap is the cache-level protection cap set by SetProtection
	// ranges; a simple whole-cache cap (the GMI allows ranges; the
	// simulation tracks per-page caps through granted instead).
	protCap gmi.Prot

	destroyed bool
	freed     bool
	// reaping marks teardown in progress: fills are still accepted so
	// the dying cache's content can be recovered for stub readers.
	reaping bool
}

var _ gmi.Cache = (*cache)(nil)

// newCache allocates a cache descriptor; p.mu must be held.
func (p *PVM) newCache(seg gmi.Segment, temp bool) *cache {
	p.nextCacheID++
	c := &cache{pvm: p, id: p.nextCacheID, seg: seg, temp: temp, protCap: gmi.ProtRWX}
	p.caches[c] = struct{}{}
	p.clock.Charge(cost.EvCacheCreate, 1)
	return c
}

// Segment implements gmi.Cache.
func (c *cache) Segment() gmi.Segment {
	c.pvm.mu.Lock()
	defer c.pvm.mu.Unlock()
	return c.seg
}

// Resident implements gmi.Cache.
func (c *cache) Resident() int {
	c.pvm.mu.Lock()
	defer c.pvm.mu.Unlock()
	return c.npages
}

// addPage links a new resident page into the cache and the global map.
// Any existing global-map entry for the key must have been removed by the
// caller, who holds p.mu exclusively or (fast fault path) p.mu.RLock plus
// the key's shard mutex.
func (p *PVM) addPage(c *cache, pg *page) {
	pg.cache = c
	c.listMu.Lock()
	pg.prevInCache = c.pageTail
	pg.nextInCache = nil
	if c.pageTail != nil {
		c.pageTail.nextInCache = pg
	} else {
		c.pageHead = pg
	}
	c.pageTail = pg
	c.npages++
	c.listMu.Unlock()
	p.gmapSet(pageKey{c, pg.off}, pg)
	p.clock.Charge(cost.EvGlobalMapOp, 1)
	p.policyInsert(pg)
}

// unlinkPage removes the page from its cache's list, the global map and
// the replacement order, leaving the frame to the caller; p.mu held
// exclusively.
func (p *PVM) unlinkPage(pg *page) {
	c := pg.cache
	c.listMu.Lock()
	if pg.prevInCache != nil {
		pg.prevInCache.nextInCache = pg.nextInCache
	} else {
		c.pageHead = pg.nextInCache
	}
	if pg.nextInCache != nil {
		pg.nextInCache.prevInCache = pg.prevInCache
	} else {
		c.pageTail = pg.prevInCache
	}
	pg.prevInCache, pg.nextInCache = nil, nil
	c.npages--
	c.listMu.Unlock()
	if e := p.gmapGet(pageKey{c, pg.off}); e == mapEntry(pg) {
		p.gmapDelete(pageKey{c, pg.off})
		p.clock.Charge(cost.EvGlobalMapOp, 1)
	}
	p.policyRemove(pg)
}

// ownPage returns the cache's resident page at off, if any; p.mu held
// exclusively (or the key's shard mutex).
func (p *PVM) ownPage(c *cache, off int64) *page {
	if pg, ok := p.gmapGet(pageKey{c, off}).(*page); ok {
		return pg
	}
	return nil
}

// findParent returns the parent fragment covering off, or nil.
func (c *cache) findParent(off int64) *parentRange {
	i := sort.Search(len(c.parents), func(i int) bool {
		return c.parents[i].off+c.parents[i].size > off
	})
	if i < len(c.parents) && c.parents[i].covers(off) {
		return &c.parents[i]
	}
	return nil
}

// addParent inserts a parent fragment, carving away any overlap with
// existing fragments (a later copy into the same range supersedes the
// earlier parent for that range); p.mu held.
func (p *PVM) addParent(c *cache, off, size int64, parent *cache, poff int64) {
	p.removeParentRange(c, off, size)
	nr := parentRange{off: off, size: size, parent: parent, poff: poff}
	i := sort.Search(len(c.parents), func(i int) bool { return c.parents[i].off > off })
	c.parents = append(c.parents, parentRange{})
	copy(c.parents[i+1:], c.parents[i:])
	c.parents[i] = nr
	parent.nchildren++
}

// removeParentRange detaches [off, off+size) from whatever parents back
// it, splitting fragments that straddle the boundary; p.mu held.
func (p *PVM) removeParentRange(c *cache, off, size int64) {
	end := off + size
	var out []parentRange
	var reap []*cache
	for _, r := range c.parents {
		rEnd := r.off + r.size
		if rEnd <= off || r.off >= end {
			out = append(out, r)
			continue
		}
		refs := -1 // the original fragment's reference goes away...
		if r.off < off {
			out = append(out, parentRange{off: r.off, size: off - r.off, parent: r.parent, poff: r.poff})
			refs++ // ...unless a left remainder keeps it
		}
		if rEnd > end {
			out = append(out, parentRange{off: end, size: rEnd - end, parent: r.parent, poff: r.poff + (end - r.off)})
			refs++ // ...or a right remainder does
		}
		r.parent.nchildren += refs
		if refs < 0 {
			reap = append(reap, r.parent)
		}
	}
	c.parents = out
	for _, parent := range reap {
		p.maybeReapParent(parent)
	}
}

// supersedeParent removes the parent link at one page offset: the cache
// now has its own authority for that page (its segment holds the content,
// or a per-page stub designates it), so inherited content must never be
// seen there again — in particular not after the resident page is evicted.
// p.mu held.
func (p *PVM) supersedeParent(c *cache, off int64) {
	if c.findParent(off) != nil {
		p.removeParentRange(c, off, p.pageSize)
	}
}

// dropAllParents detaches every parent fragment; p.mu held.
func (p *PVM) dropAllParents(c *cache) {
	for _, r := range c.parents {
		r.parent.nchildren--
		p.maybeReapParent(r.parent)
	}
	c.parents = nil
}

// histCovers reports whether the history fragment protects off.
func (c *cache) histCovers(off int64) bool {
	return c.history != nil && off >= c.histLo && off < c.histHi
}

// histTranslate maps a source offset into the history object.
func (c *cache) histTranslate(off int64) int64 { return off + c.histOff }
