// Package dsm implements distributed coherent virtual memory over the
// GMI — the use case the paper gives for its cache-control operations in
// section 3.3.3: "to implement distributed coherent virtual memory [Li &
// Hudak], [a segment server] needs to flush and/or lock the cache at
// times. The GMI provides operations flush, sync, invalidate and
// setProtection to control the cache state."
//
// The protocol is Li & Hudak's single-writer/multiple-readers with a
// fixed per-segment manager (directory) at page granularity:
//
//   - a read fault pulls the page in read-only (the pullIn grant is
//     ProtRead|ProtExec), registering the site as a reader; if another
//     site holds the page writable, the manager first downgrades and
//     syncs that copy with cache.SetProtection + cache.Sync;
//   - a write fault triggers the getWriteAccess upcall; the manager
//     invalidates every other site's copy with cache.Invalidate and
//     records the site as the exclusive owner;
//   - eviction push-outs write through to the manager's home store.
//
// Sites are separate memory managers (separate simulated machines); the
// manager stands in for the mapper actor that would run on the segment's
// home site, reached by IPC in a real Chorus system.
package dsm

import (
	"errors"
	"fmt"
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// ErrDetached is returned by coherence operations on a detached site.
var ErrDetached = errors.New("dsm: site detached")

// Manager is the per-segment coherence manager (the directory).
type Manager struct {
	pageSize int64
	clock    *cost.Clock
	home     *seg.Store // home copy of every page

	mu    sync.Mutex
	pages map[int64]*pageDir
	sites []*Site

	// tr observes coherence-transaction latency (set before use; nil-safe).
	tr *obs.Tracer
}

// pageDir is the directory entry for one page. lock serializes whole
// coherence transactions (fetch, grant) on the page: without it two sites
// could invalidate each other concurrently and both believe they own the
// page. It is a distinct lock from the directory mutex because the
// transaction spans blocking cache operations on remote sites.
type pageDir struct {
	lock    sync.Mutex
	owner   *Site          // site holding the page writable, or nil
	readers map[*Site]bool // sites holding read-only copies
}

// Site is one machine's attachment to the shared segment: the local cache
// plus the upcall glue.
type Site struct {
	Name string

	mgr      *Manager
	mm       gmi.MemoryManager
	cache    gmi.Cache
	detached bool

	// Stats observable by tests. Transactions on different pages update
	// them concurrently, so they are written through Manager.count.
	Fetches     int // pages pulled from the manager
	Upgrades    int // write-access grants
	Downgrades  int // times this site's copy was demoted to read-only
	Invalidates int // times this site's copy was discarded
}

// NewManager creates a coherence manager for one shared segment, holding
// the home copy in local memory.
func NewManager(pageSize int, clock *cost.Clock) *Manager {
	return NewManagerOn(pageSize, clock, store.NewMem(pageSize))
}

// NewManagerOn creates a coherence manager whose home copy lives on an
// arbitrary backend, such as a page file or a fault-injecting wrapper. The
// manager owns the backend from here on (Close closes it). Panics if the
// backend's page size differs from pageSize: the directory is keyed by
// page-aligned offsets and a mismatch would corrupt it silently.
func NewManagerOn(pageSize int, clock *cost.Clock, b store.Backend) *Manager {
	if b.PageSize() != pageSize {
		panic(fmt.Sprintf("dsm: backend page size %d != manager page size %d",
			b.PageSize(), pageSize))
	}
	return &Manager{
		pageSize: int64(pageSize),
		clock:    clock,
		home:     seg.NewStoreOn(b, clock),
		pages:    make(map[int64]*pageDir),
	}
}

// Home exposes the home store (tests preload initial contents).
func (m *Manager) Home() *seg.Store { return m.home }

// Close drains writeback and closes the home store (and with it the
// backend the manager owns). Call after detaching every site.
func (m *Manager) Close() error { return m.home.Close() }

// SetTracer attaches an observability tracer. Call before sites start
// faulting; a nil tracer (the default) disables the probes.
func (m *Manager) SetTracer(t *obs.Tracer) { m.tr = t }

// Attach joins a memory manager to the shared segment, returning the site
// handle and the local cache to map into contexts.
func (m *Manager) Attach(name string, mm gmi.MemoryManager) (*Site, gmi.Cache) {
	s := &Site{Name: name, mgr: m, mm: mm}
	s.cache = mm.CacheCreate((*siteSegment)(s))
	m.mu.Lock()
	m.sites = append(m.sites, s)
	m.mu.Unlock()
	return s, s.cache
}

// Cache returns the site's local cache for the shared segment.
func (s *Site) Cache() gmi.Cache { return s.cache }

// Detach flushes the site's modified pages home and removes it from the
// directory.
func (s *Site) Detach() error {
	if err := s.cache.Flush(0, 1<<62); err != nil {
		return err
	}
	m := s.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	s.detached = true
	for _, dir := range m.pages {
		delete(dir.readers, s)
		if dir.owner == s {
			dir.owner = nil
		}
	}
	for i, x := range m.sites {
		if x == s {
			m.sites = append(m.sites[:i], m.sites[i+1:]...)
			break
		}
	}
	return nil
}

// count increments one of a site's statistics.
func (m *Manager) count(stat *int) {
	m.mu.Lock()
	*stat++
	m.mu.Unlock()
}

// dir returns the directory entry for a page offset; m.mu held.
func (m *Manager) dir(off int64) *pageDir {
	d, ok := m.pages[off]
	if !ok {
		d = &pageDir{readers: make(map[*Site]bool)}
		m.pages[off] = d
	}
	return d
}

// siteSegment is the gmi.Segment a site's cache is bound to; the methods
// are the Table 3 upcalls arriving from that site's memory manager.
type siteSegment Site

var _ gmi.Segment = (*siteSegment)(nil)

// PullIn implements gmi.Segment: a read (or prefetching) fault.
func (ss *siteSegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	s := (*Site)(ss)
	m := s.mgr
	for o := off; o < off+size; o += m.pageSize {
		if err := m.fetchFor(s, c, o); err != nil {
			return err
		}
		m.count(&s.Fetches)
	}
	return nil
}

// fetchFor makes the home copy of one page current, registers s as a
// reader (downgrading a remote writer if necessary) and fills s's cache.
// The whole transaction holds the page's lock: a copy that landed after
// it was released could miss the invalidation of a write granted in
// between, and would go stale unnoticed.
func (m *Manager) fetchFor(s *Site, c gmi.Cache, off int64) error {
	m.mu.Lock()
	d := m.dir(off)
	m.mu.Unlock()
	d.lock.Lock()
	defer d.lock.Unlock()
	owner := d.owner
	if s.detached {
		return ErrDetached
	}

	if owner != nil && owner != s {
		// Another site holds the page writable: demote it to a
		// read-only copy and write it home (sync keeps it cached). The
		// demotion comes first: a write landing after the sync would
		// otherwise stay in the owner's copy, unseen at home.
		start := m.tr.Clock()
		if err := owner.cache.SetProtection(off, m.pageSize, gmi.ProtRead|gmi.ProtExec); err != nil {
			return err
		}
		if err := owner.cache.Sync(off, m.pageSize); err != nil {
			return err
		}
		m.tr.Span(obs.KindDSMSync, obs.OpDSMSync, off, 0, start)
		m.count(&owner.Downgrades)
		m.mu.Lock()
		if d.owner == owner {
			d.owner = nil
			d.readers[owner] = true
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	d.readers[s] = true
	m.mu.Unlock()

	buf := make([]byte, m.pageSize)
	// The home store's engine retries transient failures; only
	// exhaustion travels up the GMI error path, marked gmi.ErrIO like any
	// segment I/O failure.
	if err := m.home.ReadPages(off, [][]byte{buf}); err != nil {
		return fmt.Errorf("%w: dsm pullIn at %#x: %w", gmi.ErrIO, off, err)
	}
	// Grant read-only: writes must come back through getWriteAccess so
	// the manager can invalidate the other copies.
	return c.FillUp(off, buf, gmi.ProtRead|gmi.ProtExec)
}

// GetWriteAccess implements gmi.Segment: a write fault on a read-only
// grant. The manager invalidates every other copy, then grants.
func (ss *siteSegment) GetWriteAccess(c gmi.Cache, off, size int64) error {
	s := (*Site)(ss)
	m := s.mgr
	for o := off; o < off+size; o += m.pageSize {
		if err := m.grantWrite(s, o); err != nil {
			return err
		}
	}
	m.count(&s.Upgrades)
	return nil
}

func (m *Manager) grantWrite(s *Site, off int64) error {
	if s.detached {
		return ErrDetached
	}
	m.mu.Lock()
	d := m.dir(off)
	m.mu.Unlock()
	d.lock.Lock()
	defer d.lock.Unlock()
	m.mu.Lock()
	var victims []*Site
	if d.owner != nil && d.owner != s {
		victims = append(victims, d.owner)
	}
	for r := range d.readers {
		if r != s {
			victims = append(victims, r)
		}
	}
	m.mu.Unlock()

	for _, v := range victims {
		// A writable victim's modifications must reach home before the
		// new writer proceeds; readers are simply discarded. Write
		// access goes first, so no write lands between the sync and the
		// discard.
		start := m.tr.Clock()
		if err := v.cache.SetProtection(off, m.pageSize, gmi.ProtRead|gmi.ProtExec); err != nil {
			return err
		}
		if err := v.cache.Sync(off, m.pageSize); err != nil {
			return err
		}
		if err := v.cache.Invalidate(off, m.pageSize); err != nil {
			return err
		}
		m.tr.Span(obs.KindDSMInvalidate, obs.OpDSMInvalidate, off, 0, start)
		m.count(&v.Invalidates)
	}

	m.mu.Lock()
	d.owner = s
	d.readers = map[*Site]bool{}
	m.mu.Unlock()
	return nil
}

// PushOut implements gmi.Segment: eviction or flush writes home.
func (ss *siteSegment) PushOut(c gmi.Cache, off, size int64) error {
	s := (*Site)(ss)
	m := s.mgr
	buf := make([]byte, size)
	if err := c.CopyBack(off, buf); err != nil {
		return err
	}
	// WriteAt only enqueues: the engine's writeback retries transient
	// failures, and an error here is one it latched as permanent.
	if err := m.home.WriteAt(off, buf); err != nil {
		return fmt.Errorf("%w: dsm pushOut at %#x: %w", gmi.ErrIO, off, err)
	}
	return nil
}

// Invariant checks the single-writer/multiple-readers property of the
// directory; tests call it after operation storms.
func (m *Manager) Invariant() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for off, d := range m.pages {
		if d.owner != nil && len(d.readers) > 0 {
			return errOwnerAndReaders(off)
		}
	}
	return nil
}

type errOwnerAndReaders int64

func (e errOwnerAndReaders) Error() string {
	return "dsm: page has both a writer and readers"
}
