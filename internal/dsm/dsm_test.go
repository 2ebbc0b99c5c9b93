package dsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

const (
	pg   = 8192
	base = gmi.VA(0x10000)
)

// site bundles a simulated machine: its own PVM, context and mapping of
// the shared segment.
type testSite struct {
	*Site
	mm  *core.PVM
	ctx gmi.Context
}

func newCluster(t *testing.T, mgr *Manager, n, pages int, opts ...func(*core.Options)) []*testSite {
	t.Helper()
	var out []*testSite
	for i := 0; i < n; i++ {
		clock := cost.New()
		o := core.Options{
			Frames: 128, PageSize: pg, Clock: clock,
			SegAlloc: seg.NewSwapAllocator(pg, clock),
		}
		for _, f := range opts {
			f(&o)
		}
		mm := core.New(o)
		s, cache := mgr.Attach(fmt.Sprintf("site%d", i), mm)
		ctx, err := mm.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RegionCreate(base, int64(pages)*pg, gmi.ProtRW, cache, 0); err != nil {
			t.Fatal(err)
		}
		out = append(out, &testSite{Site: s, mm: mm, ctx: ctx})
	}
	return out
}

func TestReadSharing(t *testing.T) {
	mgr := NewManager(pg, cost.New())
	want := []byte("shared across the cluster")
	mgr.Home().WriteAt(0, want)

	sites := newCluster(t, mgr, 3, 4)
	for i, s := range sites {
		got := make([]byte, len(want))
		if err := s.ctx.Read(base, got); err != nil {
			t.Fatalf("site %d read: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("site %d sees wrong data", i)
		}
	}
	// Pure read sharing must not invalidate anybody.
	for i, s := range sites {
		if s.Invalidates != 0 || s.Downgrades != 0 {
			t.Fatalf("site %d disturbed by read sharing", i)
		}
	}
	if err := mgr.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestWritePropagation(t *testing.T) {
	mgr := NewManager(pg, cost.New())
	sites := newCluster(t, mgr, 2, 4)
	a, b := sites[0], sites[1]

	// A writes; its first write upgrades through getWriteAccess.
	if err := a.ctx.Write(base, []byte("written at site A")); err != nil {
		t.Fatal(err)
	}
	if a.Upgrades == 0 {
		t.Fatal("write did not go through getWriteAccess")
	}
	// B reads: A must be downgraded and B must see the write.
	got := make([]byte, 17)
	if err := b.ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "written at site A" {
		t.Fatalf("B sees %q", got)
	}
	if a.Downgrades != 1 {
		t.Fatalf("A downgrades = %d, want 1", a.Downgrades)
	}
	// B writes the same page: A's copy must be invalidated.
	if err := b.ctx.Write(base+100, []byte("B too")); err != nil {
		t.Fatal(err)
	}
	if a.Invalidates != 1 {
		t.Fatalf("A invalidates = %d, want 1", a.Invalidates)
	}
	// A reads back: must see both writes (its own and B's).
	got = make([]byte, 105)
	if err := a.ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:17]) != "written at site A" || string(got[100:105]) != "B too" {
		t.Fatalf("A sees %q", got)
	}
	if err := mgr.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPingPong(t *testing.T) {
	mgr := NewManager(pg, cost.New())
	sites := newCluster(t, mgr, 2, 1)
	a, b := sites[0], sites[1]

	// Alternate writers on one page: a classic DSM ping-pong. Each side
	// must always see the other's latest value.
	for i := byte(1); i <= 20; i++ {
		w, r := a, b
		if i%2 == 0 {
			w, r = b, a
		}
		if err := w.ctx.Write(base, []byte{i}); err != nil {
			t.Fatalf("round %d write: %v", i, err)
		}
		got := make([]byte, 1)
		if err := r.ctx.Read(base, got); err != nil {
			t.Fatalf("round %d read: %v", i, err)
		}
		if got[0] != i {
			t.Fatalf("round %d: reader sees %d", i, got[0])
		}
	}
	if a.Downgrades+b.Downgrades < 10 {
		t.Fatalf("ping-pong caused only %d downgrades", a.Downgrades+b.Downgrades)
	}
	if err := mgr.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachFlushesHome(t *testing.T) {
	mgr := NewManager(pg, cost.New())
	sites := newCluster(t, mgr, 2, 2)
	a, b := sites[0], sites[1]

	if err := a.ctx.Write(base+pg, []byte("dying words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Detach(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if err := b.ctx.Read(base+pg, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "dying words" {
		t.Fatalf("write lost at detach: %q", got)
	}
}

// TestConcurrentSites runs disjoint-page writers and cross-page readers in
// parallel; per-page last-writer contents must be exact and the directory
// invariant must hold. With read-ahead a site's fill covers several pages,
// which the manager fills one at a time under each page's lock, so each
// fillUp must be resident when it returns, not when the whole fill ends.
func TestConcurrentSites(t *testing.T) {
	for _, ra := range []int{1, 4} {
		t.Run(fmt.Sprintf("readahead%d", ra), func(t *testing.T) {
			testConcurrentSites(t, func(o *core.Options) { o.ReadAheadPages = ra })
		})
	}
}

func testConcurrentSites(t *testing.T, opt func(*core.Options)) {
	mgr := NewManager(pg, cost.New())
	const nsites, pages = 4, 8
	sites := newCluster(t, mgr, nsites, pages, opt)

	var wg sync.WaitGroup
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s *testSite) {
			defer wg.Done()
			// Each site owns pages i, i+nsites, ... and hammers them
			// while reading everyone else's.
			for round := 0; round < 15; round++ {
				for p := i; p < pages; p += nsites {
					tag := []byte{byte(i + 1), byte(round)}
					if err := s.ctx.Write(base+gmi.VA(p*pg), tag); err != nil {
						t.Errorf("site %d write: %v", i, err)
						return
					}
				}
				buf := make([]byte, 2)
				for p := 0; p < pages; p++ {
					if err := s.ctx.Read(base+gmi.VA(p*pg), buf); err != nil {
						t.Errorf("site %d read: %v", i, err)
						return
					}
				}
			}
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every page must hold its owner's final round.
	for p := 0; p < pages; p++ {
		owner := p % nsites
		got := make([]byte, 2)
		if err := sites[(p+1)%nsites].ctx.Read(base+gmi.VA(p*pg), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(owner+1) || got[1] != 14 {
			t.Fatalf("page %d final content %v, want [%d 14]", p, got, owner+1)
		}
	}
	if err := mgr.Invariant(); err != nil {
		t.Fatal(err)
	}
}
