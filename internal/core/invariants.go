package core

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// CheckInvariants verifies the structural invariants of Figure 2 and
// section 4 against the live PVM state. It is exercised by the test suite
// after every mutation sequence; any violated invariant is a bug in the
// memory manager, never in the caller.
//
// Checked invariants (numbering matches DESIGN.md section 6):
//
//	(3) region lists are sorted and non-overlapping;
//	(4) the global map, cache page lists and stub threading agree;
//	(5) descriptor population is O(resident frames + regions);
//	    frame accounting balances exactly;
//	(1) history back-pointers are mutually consistent and the history
//	    object is among its owner's children;
//	(7) no reverse map holds a (context, va) twice, and its backing
//	    array beyond len is zeroed.
func (p *PVM) CheckInvariants() error {
	p.mu.Lock()
	defer p.unlock()
	return p.checkInvariantsLocked()
}

func (p *PVM) checkInvariantsLocked() error {
	// Recompute child reference counts from the fragment lists.
	childRefs := make(map[*cache]int)
	for c := range p.caches {
		for _, pr := range c.parents {
			childRefs[pr.parent]++
		}
	}

	totalPages := 0
	linkedPages := 0
	for c := range p.caches {
		// Page list vs global map.
		n := 0
		seen := make(map[int64]bool)
		for pg := c.pageHead; pg != nil; pg = pg.nextInCache {
			n++
			if pg.pnode.Linked() {
				linkedPages++
			}
			if pg.cache != c {
				return fmt.Errorf("page %#x in cache %p has cache pointer %p", pg.off, c, pg.cache)
			}
			if pg.frame == nil {
				return fmt.Errorf("page %#x in cache %p has no frame", pg.off, c)
			}
			if seen[pg.off] {
				return fmt.Errorf("cache %p holds offset %#x twice", c, pg.off)
			}
			seen[pg.off] = true
			if e := p.gmapGet(pageKey{c, pg.off}); e != mapEntry(pg) {
				return fmt.Errorf("cache %p page %#x not in global map", c, pg.off)
			}
			if !pg.pnode.Linked() && pg.pin == 0 {
				return fmt.Errorf("cache %p page %#x neither policy-linked nor pinned", c, pg.off)
			}
			if err := checkRmap(pg); err != nil {
				return err
			}
			for st := pg.stubs; st != nil; st = st.nextForPage {
				if st.src != pg {
					return fmt.Errorf("stub on page %#x of %p points at %p", pg.off, c, st.src)
				}
				if e := p.gmapGet(pageKey{st.dstCache, st.dstOff}); e != mapEntry(st) {
					return fmt.Errorf("threaded stub (%p,%#x) not live in global map", st.dstCache, st.dstOff)
				}
			}
		}
		if n != c.npages {
			return fmt.Errorf("cache %p npages=%d but list holds %d", c, c.npages, n)
		}
		totalPages += n

		// Remote stub threading.
		for off, head := range c.remoteStubs {
			for st := head; st != nil; st = st.nextForPage {
				if st.src != nil {
					return fmt.Errorf("remote stub at (%p,%#x) has resident src", c, off)
				}
				if st.srcCache != c || st.srcOff != off {
					return fmt.Errorf("remote stub at (%p,%#x) designates (%p,%#x)", c, off, st.srcCache, st.srcOff)
				}
			}
		}

		// Parent fragments: sorted, disjoint, positive.
		for i, pr := range c.parents {
			if pr.size <= 0 {
				return fmt.Errorf("cache %p fragment %d has size %d", c, i, pr.size)
			}
			if i > 0 {
				prev := c.parents[i-1]
				if prev.off+prev.size > pr.off {
					return fmt.Errorf("cache %p fragments %d,%d overlap", c, i-1, i)
				}
			}
			if pr.parent.freed {
				return fmt.Errorf("cache %p fragment %d references freed parent", c, i)
			}
		}

		// Reference counts.
		if c.nchildren != childRefs[c] {
			return fmt.Errorf("cache %p nchildren=%d but %d fragments reference it", c, c.nchildren, childRefs[c])
		}

		// History back-pointers. (The history object may hold no
		// fragment over its owner anymore: once every covered page has
		// been pushed to the history's own segment, the links are
		// superseded and the relationship is vestigial.)
		if c.history != nil {
			if c.history.histOwner != c {
				return fmt.Errorf("cache %p history %p has owner %p", c, c.history, c.history.histOwner)
			}
			if _, live := p.caches[c.history]; !live {
				return fmt.Errorf("cache %p history %p is not a live cache", c, c.history)
			}
		}
		if c.histOwner != nil && c.histOwner.history != c {
			return fmt.Errorf("cache %p claims owner %p which points at %p", c, c.histOwner, c.histOwner.history)
		}
	}

	// Global map entries must belong to live structures.
	stubCount := 0
	var gmapErr error
	p.gmapRange(func(key pageKey, e mapEntry) bool {
		switch v := e.(type) {
		case *page:
			if v.cache != key.c || v.off != key.off {
				gmapErr = fmt.Errorf("global map key (%p,%#x) holds page (%p,%#x)", key.c, key.off, v.cache, v.off)
				return false
			}
			if _, live := p.caches[key.c]; !live {
				gmapErr = fmt.Errorf("global map page for freed cache %p", key.c)
				return false
			}
		case *cowStub:
			stubCount++
			if v.dstCache != key.c || v.dstOff != key.off {
				gmapErr = fmt.Errorf("global map key (%p,%#x) holds stub for (%p,%#x)", key.c, key.off, v.dstCache, v.dstOff)
				return false
			}
			if v.dstCache.stubsAt[key.off] != v {
				gmapErr = fmt.Errorf("stub (%p,%#x) missing from stubsAt index", key.c, key.off)
				return false
			}
			if v.src != nil {
				found := false
				for st := v.src.stubs; st != nil; st = st.nextForPage {
					if st == v {
						found = true
					}
				}
				if !found {
					gmapErr = fmt.Errorf("stub (%p,%#x) not threaded on its source page", key.c, key.off)
					return false
				}
			} else if v.srcCache != nil {
				found := false
				for st := v.srcCache.remoteStubs[v.srcOff]; st != nil; st = st.nextForPage {
					if st == v {
						found = true
					}
				}
				if !found {
					gmapErr = fmt.Errorf("stub (%p,%#x) not threaded on remote list of (%p,%#x)", key.c, key.off, v.srcCache, v.srcOff)
					return false
				}
			}
		case *syncStub:
			// In-transit: acceptable at any time.
		}
		return true
	})
	if gmapErr != nil {
		return gmapErr
	}
	indexCount := 0
	for c := range p.caches {
		indexCount += len(c.stubsAt)
	}
	if stubCount != indexCount {
		return fmt.Errorf("global map holds %d stubs but indexes hold %d", stubCount, indexCount)
	}

	// Policy accounting: the replacement policy threads exactly the
	// linked resident pages — a ghost node (page freed or migrated but
	// still threaded in the policy) or a lost one (page claims linkage
	// the policy does not hold) shows up as a count mismatch.
	if polLen := p.pol.Len(); polLen != linkedPages {
		return fmt.Errorf("policy threads %d nodes but %d resident pages are linked", polLen, linkedPages)
	}

	// Frame accounting: every allocated frame is owned by exactly one
	// resident page (pages hold distinct frames by construction of the
	// allocator) or is in flight (allocated but unpublished while its
	// content is filled outside the lock).
	inFlight := int(atomic.LoadInt64(&p.inFlightFrames))
	if free := p.mem.FreeFrames(); free+totalPages+inFlight != p.mem.TotalFrames() {
		return fmt.Errorf("frame accounting: %d free + %d resident + %d in flight != %d total",
			free, totalPages, inFlight, p.mem.TotalFrames())
	}

	// Regions: sorted, non-overlapping, cache back-registration.
	for ctx := range p.contexts {
		if !sort.SliceIsSorted(ctx.regions, func(i, j int) bool {
			return ctx.regions[i].addr < ctx.regions[j].addr
		}) {
			return fmt.Errorf("context %p region list unsorted", ctx)
		}
		for i, r := range ctx.regions {
			if r.gone {
				return fmt.Errorf("context %p holds destroyed region %#x", ctx, uint64(r.addr))
			}
			if i > 0 {
				prev := ctx.regions[i-1]
				if int64(prev.addr)+prev.size > int64(r.addr) {
					return fmt.Errorf("context %p regions %d,%d overlap", ctx, i-1, i)
				}
			}
			found := false
			for _, rr := range r.cache.regions {
				if rr == r {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("region %#x not registered on its cache", uint64(r.addr))
			}
		}
	}
	return nil
}

// checkRmap verifies invariant (7) for one page. Entries of destroyed
// contexts are not errors: they stay until the page's next rmap scan
// (addMapping, invalidateMappings or protectMappings) drops them.
func checkRmap(pg *page) error {
	for i, m := range pg.rmap {
		for _, o := range pg.rmap[:i] {
			if o == m {
				return fmt.Errorf("page %#x of %p maps (%p, %#x) twice", pg.off, pg.cache, m.ctx, uint64(m.va))
			}
		}
	}
	for _, m := range pg.rmap[len(pg.rmap):cap(pg.rmap)] {
		if m.ctx != nil {
			return fmt.Errorf("page %#x of %p keeps context %p beyond its rmap", pg.off, pg.cache, m.ctx)
		}
	}
	return nil
}

// HistoryShape verifies the section 4.2.1 shape invariant over all live
// caches: each copy source has exactly one immediate descendant — its
// history object — and the tree is binary. Exposed for the Figure 3 tests.
func (p *PVM) HistoryShape() error {
	p.mu.Lock()
	defer p.unlock()
	children := make(map[*cache][]*cache)
	for c := range p.caches {
		seen := make(map[*cache]bool)
		for _, pr := range c.parents {
			if !seen[pr.parent] {
				seen[pr.parent] = true
				children[pr.parent] = append(children[pr.parent], c)
			}
		}
	}
	for c := range p.caches {
		kids := children[c]
		if c.history != nil {
			if len(kids) != 1 || kids[0] != c.history {
				return fmt.Errorf("source %p has %d immediate descendants, want exactly its history", c, len(kids))
			}
		}
		if len(kids) > 2 {
			return fmt.Errorf("cache %p has %d children; tree must be binary", c, len(kids))
		}
	}
	return nil
}

// CacheCount returns the number of live cache descriptors (tests use it to
// verify collapse and zombie reaping).
func (p *PVM) CacheCount() int {
	p.mu.Lock()
	defer p.unlock()
	return len(p.caches)
}
