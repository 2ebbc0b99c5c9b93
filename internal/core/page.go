package core

import (
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
	"chorusvm/internal/policy"
)

// This file defines the PVM's per-page structures (Figure 2 of the paper):
// real-page descriptors, the global map and its stubs, and the page-out
// policy threading.

// pageKey indexes the global map: a page is named by its local-cache and
// its offset in the segment (section 4.1.1).
type pageKey struct {
	c   *cache
	off int64
}

// mapEntry is what the global map holds for a key: a resident page, a
// synchronization stub (fragment in transit), or a per-virtual-page
// copy-on-write stub.
type mapEntry interface{ isMapEntry() }

// page is a real page descriptor: it owns one physical frame and records
// which cache the frame caches, at which offset.
type page struct {
	frame *phys.Frame
	cache *cache
	off   int64

	// granted is the access mode the segment granted when the data was
	// pulled in (the accessMode of the pullIn upcall). A write beyond it
	// triggers the getWriteAccess upcall.
	granted gmi.Prot
	// dirty marks content not yet pushed out.
	dirty bool
	// revokes counts SetProtection calls that withheld write access. A
	// getWriteAccess answer is only applied if none landed while the
	// upcall was out: the segment may have revoked the very access it
	// had just granted, before the grant was recorded here.
	revokes uint32
	// pin counts lockInMemory holds; a pinned page is never evicted and
	// its mappings stay fixed.
	pin int
	// cowProtected marks a page write-protected because it is the source
	// of a history-object deferred copy whose history object does not
	// yet hold the original (section 4.2.2).
	cowProtected bool
	// busy marks a page whose frame is being pushed out; the frame must
	// not be modified or freed until the push completes. busyDone is
	// closed when it does.
	busy     bool
	busyDone chan struct{}

	// stubs heads the threaded list of per-virtual-page COW stubs that
	// reference this page as their source (section 4.3).
	stubs *cowStub

	// rmap records the translations installed for this frame, so that
	// protection changes and evictions reach every context. Entries are
	// validated against the live translation before use, so a stale
	// entry never touches a wrong mapping; but each one costs a step of
	// every rmap scan and keeps its context (and that context's page
	// table) reachable. Every scan therefore drops entries of destroyed
	// contexts and zeroes the slots it vacates, so the list stays
	// bounded by the page's live mappers (invariant 7, DESIGN.md §6).
	rmap []mapping

	// Cache page list threading (Figure 2's doubly-linked list).
	prevInCache, nextInCache *page

	// pnode threads the page on the replacement policy's queues
	// (internal/policy); its Owner points back at this descriptor.
	pnode policy.Node
}

func (*page) isMapEntry() {}

// mapping is one installed translation of a page.
type mapping struct {
	ctx *context
	va  gmi.VA
}

// syncStub marks a fragment in transit (pullIn, or pushOut when out is
// set). Accesses to the fragment block on done (section 4.1.2).
type syncStub struct {
	done chan struct{}
	// closed records that done has been closed. The filler and the
	// fault path can both try to settle a stub; whoever removes it from
	// the global map closes done, guarded by this flag (writers hold
	// p.mu exclusively or the stub key's shard mutex — mutually
	// exclusive modes, see settleStub).
	closed bool
	// out, when non-nil, is the page being pushed out: copyBack finds
	// the data here while the key is detached from normal access.
	out *page
	// err carries a failed fill's outcome to parked waiters. It is
	// written (under the same locking discipline as closed) strictly
	// before the stub settles and read only after <-done, so the channel
	// close publishes it.
	err error
}

func (*syncStub) isMapEntry() {}

// cowStub is a per-virtual-page copy-on-write stub (section 4.3): the
// destination page's global-map entry, pointing at the source. If the
// source is resident, src points at its page descriptor and the stub is
// threaded on that page's stub list; otherwise srcCache/srcOff designate
// the source local-cache, from which the content can be recovered.
type cowStub struct {
	dstCache *cache
	dstOff   int64

	src      *page
	srcCache *cache
	srcOff   int64

	// nextForPage threads the stub on its source page's list (or on the
	// source cache's remote-stub list while the source is not resident).
	nextForPage *cowStub
}

func (*cowStub) isMapEntry() {}

// invalidateMappings removes every live translation of pg, after which no
// context can reach the frame without faulting. Stale rmap entries (same
// va remapped to a different frame since) are detected by comparing the
// installed frame and skipped; destroyed contexts are skipped without
// touching their space. Caller holds p.mu exclusively or the page's shard
// mutex; each context's space is touched under its spaceMu.
func (p *PVM) invalidateMappings(pg *page) {
	for _, m := range pg.rmap {
		if m.ctx.destroyed {
			continue
		}
		m.ctx.spaceMu.Lock()
		if f, _, ok := m.ctx.space.Lookup(m.va); ok && f == pg.frame {
			m.ctx.space.Unmap(m.va)
		}
		m.ctx.spaceMu.Unlock()
	}
	clear(pg.rmap)
	pg.rmap = pg.rmap[:0]
}

// protectMappings lowers every live translation of pg to prot (used to
// write-protect deferred-copy sources and cleaned pages) and drops the
// entries that are no longer live. Same locking as invalidateMappings.
func (p *PVM) protectMappings(pg *page, prot gmi.Prot) {
	live := pg.rmap[:0]
	for _, m := range pg.rmap {
		if m.ctx.destroyed {
			continue
		}
		m.ctx.spaceMu.Lock()
		if f, cur, ok := m.ctx.space.Lookup(m.va); ok && f == pg.frame {
			m.ctx.space.Protect(m.va, cur&prot)
			live = append(live, m)
		}
		m.ctx.spaceMu.Unlock()
	}
	clear(pg.rmap[len(live):])
	pg.rmap = live
}

// addMapping records a translation installed for pg. The duplicate scan
// also drops entries of destroyed contexts, so a page shared by a stream
// of short-lived processes (exec'd text) keeps one entry per live mapper.
// ctx.destroyed is read race-free: every caller holds p.mu (shared on the
// fast path), and Context.Destroy sets it under p.mu exclusively.
func (pg *page) addMapping(ctx *context, va gmi.VA) {
	live := pg.rmap[:0]
	dup := false
	for _, m := range pg.rmap {
		if m.ctx.destroyed {
			continue
		}
		dup = dup || (m.ctx == ctx && m.va == va)
		live = append(live, m)
	}
	clear(pg.rmap[len(live):])
	pg.rmap = live
	if !dup {
		pg.rmap = append(pg.rmap, mapping{ctx: ctx, va: va})
	}
}
