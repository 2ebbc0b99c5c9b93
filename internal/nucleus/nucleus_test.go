package nucleus

import (
	"bytes"
	"errors"
	"testing"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
)

const (
	pg   = 8192
	base = gmi.VA(0x10000)
)

func newSite(t *testing.T) *Site {
	t.Helper()
	clock := cost.New()
	return NewSite(clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
		return core.New(core.Options{Frames: 256, PageSize: pg, Clock: clock, SegAlloc: sa})
	})
}

func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

// TestMapperProtocol drives a pullIn/pushOut round trip through the IPC
// mapper protocol.
func TestMapperProtocol(t *testing.T) {
	s := newSite(t)
	m := NewMapper(s, "files")
	cap := m.CreateSegment()
	want := pattern(0x31, 2*pg)
	if err := m.Preload(cap, 0, want); err != nil {
		t.Fatal(err)
	}

	actor, err := s.NewActor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := actor.RgnMap(base, 2*pg, gmi.ProtRW, cap, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*pg)
	if err := actor.Ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mapped read through IPC mapper mismatch")
	}

	// Write + flush must reach the mapper's store via pushOut IPC.
	mod := pattern(0x77, 64)
	if err := actor.Ctx.Write(base+pg, mod); err != nil {
		t.Fatal(err)
	}
	c, _ := s.SegMgr.Acquire(cap)
	if err := c.Sync(0, 2*pg); err != nil {
		t.Fatal(err)
	}
	s.SegMgr.Release(cap)
	check := make([]byte, 64)
	if err := m.Preload(cap, 0, nil); err != nil { // no-op; validates cap
		t.Fatal(err)
	}
	// Read the store directly through another acquire + invalidate.
	buf := pattern(0, 64)
	func() {
		// Verify via a second, fresh mapping in a new actor.
		a2, _ := s.NewActor()
		if _, err := a2.RgnMap(base, 2*pg, gmi.ProtRead, cap, 0); err != nil {
			t.Fatal(err)
		}
		if err := a2.Ctx.Read(base+pg, buf); err != nil {
			t.Fatal(err)
		}
	}()
	copy(check, buf)
	if !bytes.Equal(check, mod) {
		t.Fatal("sync did not reach the mapper store")
	}
}

// TestMapperReportsStoreFailure closes a segment's store behind the
// mapper: a read through the mapper port must fail with ErrMapperFailed
// instead of answering with the unread buffer as page content, and
// writes must fail the same way.
func TestMapperReportsStoreFailure(t *testing.T) {
	s := newSite(t)
	m := NewMapper(s, "files")
	cap := m.CreateSegment()
	if err := m.Preload(cap, 0, pattern(0x31, pg)); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	st := m.stores[cap.Key]
	m.mu.Unlock()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ms := &mapperSegment{cap: cap}
	c, err := s.SegMgr.Acquire(cap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.SegMgr.Release(cap)
	if err := ms.PullIn(c, 0, pg, gmi.ProtRead); !errors.Is(err, ErrMapperFailed) {
		t.Fatalf("PullIn from a closed store = %v, want ErrMapperFailed", err)
	}
	resp, err := cap.Port.Call(encodeReq(mapOpWrite, cap.Key, 0, pg, pattern(0x32, pg)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("write to a closed store answered %v, want an empty reply", resp)
	}
	if err := m.Preload(cap, 0, pattern(0x33, pg)); err == nil {
		t.Fatal("Preload into a closed store succeeded")
	}
}

// TestSegmentCaching verifies section 5.1.3: re-acquiring a released
// segment hits the warm cache and keeps its resident pages.
func TestSegmentCaching(t *testing.T) {
	s := newSite(t)
	m := NewMapper(s, "files")
	cap := m.CreateSegment()
	if err := m.Preload(cap, 0, pattern(0x55, 4*pg)); err != nil {
		t.Fatal(err)
	}

	// First use: miss; fault all pages in.
	a1, _ := s.NewActor()
	if _, err := a1.RgnMap(base, 4*pg, gmi.ProtRead, cap, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*pg)
	if err := a1.Ctx.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if err := a1.Destroy(); err != nil {
		t.Fatal(err)
	}

	// Second use: must hit the kept cache, with pages still resident.
	a2, _ := s.NewActor()
	if _, err := a2.RgnMap(base, 4*pg, gmi.ProtRead, cap, 0); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.SegMgr.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	c, _ := s.SegMgr.Acquire(cap)
	if c.Resident() != 4 {
		t.Fatalf("resident=%d after recache, want 4 (pages kept warm)", c.Resident())
	}
	s.SegMgr.Release(cap)

	// With caching disabled, release discards the cache.
	s.SegMgr.SetCacheLimit(0)
	if err := a2.Destroy(); err != nil {
		t.Fatal(err)
	}
	a3, _ := s.NewActor()
	if _, err := a3.RgnMap(base, 4*pg, gmi.ProtRead, cap, 0); err != nil {
		t.Fatal(err)
	}
	_, misses2 := s.SegMgr.Stats()
	if misses2 != 2 {
		t.Fatalf("misses=%d after disabling cache, want 2", misses2)
	}
}

// TestRgnInitFromActor verifies the fork building block: a deferred copy
// of another actor's region.
func TestRgnInitFromActor(t *testing.T) {
	s := newSite(t)
	parent, _ := s.NewActor()
	if _, err := parent.RgnAllocate(base, 4*pg, gmi.ProtRW); err != nil {
		t.Fatal(err)
	}
	want := pattern(0x66, 4*pg)
	if err := parent.Ctx.Write(base, want); err != nil {
		t.Fatal(err)
	}

	child, _ := s.NewActor()
	if _, err := child.RgnInitFromActor(base, 4*pg, gmi.ProtRW, parent, base); err != nil {
		t.Fatal(err)
	}
	// Parent writes after the copy; child sees pre-copy values.
	if err := parent.Ctx.Write(base, pattern(0xFF, pg)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*pg)
	if err := child.Ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("child does not see pre-fork contents")
	}
	// Child write does not disturb the parent.
	if err := child.Ctx.Write(base+pg, pattern(0x01, pg)); err != nil {
		t.Fatal(err)
	}
	pbuf := make([]byte, pg)
	if err := parent.Ctx.Read(base+pg, pbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pbuf, want[pg:2*pg]) {
		t.Fatal("child write leaked into parent")
	}
	if err := child.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Destroy(); err != nil {
		t.Fatal(err)
	}
}

// TestRgnMapFromActor verifies text sharing: both actors see one cache.
func TestRgnMapFromActor(t *testing.T) {
	s := newSite(t)
	m := NewMapper(s, "files")
	cap := m.CreateSegment()
	if err := m.Preload(cap, 0, pattern(0x13, 2*pg)); err != nil {
		t.Fatal(err)
	}
	a1, _ := s.NewActor()
	if _, err := a1.RgnMap(base, 2*pg, gmi.ProtRX, cap, 0); err != nil {
		t.Fatal(err)
	}
	a2, _ := s.NewActor()
	if _, err := a2.RgnMapFromActor(base, 2*pg, gmi.ProtRX, a1, base); err != nil {
		t.Fatal(err)
	}
	b1 := make([]byte, pg)
	b2 := make([]byte, pg)
	if err := a1.Ctx.Read(base, b1); err != nil {
		t.Fatal(err)
	}
	if err := a2.Ctx.Read(base, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("shared text mismatch")
	}
	r1, _ := a1.Ctx.FindRegion(base)
	r2, _ := a2.Ctx.FindRegion(base)
	if r1.Status().Cache != r2.Status().Cache {
		t.Fatal("text not shared through one local-cache")
	}
}

// storeCount reports how many segments m holds a store for.
func storeCount(m *Mapper) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stores)
}

// TestMapperDropsReleasedSwapStores: the default mapper holds a store for
// each swap segment it hands out (segmentCreate), and the memory manager
// releases a swap segment when the cache it was created for dies, so
// caches that pushed out and were then destroyed leave the mapper
// holding no store. Closing the site closes the rest.
func TestMapperDropsReleasedSwapStores(t *testing.T) {
	s := newSite(t)
	dm := s.SegMgr.DefaultMapper()
	pvm := s.MM.(*core.PVM)
	const actors, npages = 3, 4
	var as []*Actor
	for i := 0; i < actors; i++ {
		a, err := s.NewActor()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.RgnAllocate(base, npages*pg, gmi.ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := a.Ctx.Write(base, pattern(byte(i+1), npages*pg)); err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	if n := pvm.PageOut(actors * npages); n == 0 {
		t.Fatal("PageOut reclaimed nothing")
	}
	if got := storeCount(dm); got != actors {
		t.Fatalf("default mapper holds %d stores after push-out, want %d", got, actors)
	}
	// Pushed-out content still reads back through the mapper.
	got := make([]byte, npages*pg)
	if err := as[0].Ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(1, npages*pg)) {
		t.Fatal("pushed-out page read back wrong")
	}
	for _, a := range as {
		if err := a.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if got := storeCount(dm); got != 0 {
		t.Fatalf("default mapper holds %d stores after every cache was destroyed, want 0", got)
	}

	m := NewMapper(s, "files")
	m.CreateSegment()
	m.CreateSegment()
	if got := storeCount(m); got != 2 {
		t.Fatalf("mapper holds %d stores, want 2", got)
	}
	s.Close()
	if got := storeCount(m); got != 0 {
		t.Fatalf("mapper holds %d stores after the site closed, want 0", got)
	}
}

// TestSiteCloseStopsMappers: Close stops the goroutine of every mapper
// the site started, the default mapper's included, and each mapper
// closes its stores (and their engines' workers) before Close returns.
// A second Close is a no-op.
func TestSiteCloseStopsMappers(t *testing.T) {
	leakcheck.Check(t)

	s := newSite(t)
	m := NewMapper(s, "files")
	cap := m.CreateSegment()
	want := pattern(0x42, 2*pg)
	if err := m.Preload(cap, 0, want); err != nil {
		t.Fatal(err)
	}
	a, err := s.NewActor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RgnMap(base, 2*pg, gmi.ProtRead, cap, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*pg)
	if err := a.Ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read through the mapper mismatch")
	}
	s.Close()
	if got := storeCount(m); got != 0 {
		t.Fatalf("mapper holds %d stores after the site closed, want 0", got)
	}
	s.Close()
}
