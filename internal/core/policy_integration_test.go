package core

import (
	"sync"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
	"chorusvm/internal/policy"
	"chorusvm/internal/seg"
)

// This file tests the replacement-policy subsystem end to end through the
// PVM: the extracted LRU must reproduce the old in-core list's eviction
// order exactly, the harvest tick must carry MMU referenced bits into the
// policy, and SetPolicy must migrate live pages.

// residentOffs returns the sorted offsets resident in c.
func residentOffs(t *testing.T, p *PVM, c gmi.Cache) map[int64]bool {
	t.Helper()
	info, ok := p.Describe(c)
	if !ok {
		t.Fatal("Describe failed for live cache")
	}
	set := make(map[int64]bool, len(info.Resident))
	for _, pi := range info.Resident {
		set[pi.Off] = true
	}
	return set
}

// TestLRUEvictionOrderExact is the behaviour-preservation regression test
// for the LRU extraction: insertion order is eviction order, a soft fault
// moves the page to MRU, and eviction follows the reordered sequence with
// exact counts — any deviation from the old lruList's semantics shows up
// as a wrong page leaving residency.
func TestLRUEvictionOrderExact(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	if got := p.Policy(); got != "lru" {
		t.Fatalf("default policy = %q, want lru", got)
	}
	gctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	ctx := gctx.(*context)
	c := p.TempCacheCreate()
	const npages = 8
	mustRegion(t, gctx, base, npages*pg, gmi.ProtRW, c, 0)

	// Insert pages 0..7 in order, then soft-fault 3, 1, 6: the expected
	// eviction order is the untouched pages in insertion order followed
	// by the touched ones in touch order.
	for i := 0; i < npages; i++ {
		mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	for _, i := range []int{3, 1, 6} {
		if err := p.HandleFault(ctx, base+gmi.VA(i*pg), gmi.ProtRead); err != nil {
			t.Fatalf("soft fault on page %d: %v", i, err)
		}
	}
	want := []int64{0, 2, 4, 5, 7, 3, 1, 6}

	var got []int64
	before := residentOffs(t, p, c)
	for attempts := 0; len(got) < npages; attempts++ {
		if attempts > 4*npages {
			t.Fatalf("no eviction progress after %d PageOut calls (evicted %v)", attempts, got)
		}
		// PageOut may spend an iteration on the segmentCreate upcall
		// without freeing a frame; diff residency to observe the actual
		// victim.
		p.PageOut(1)
		after := residentOffs(t, p, c)
		for off := range before {
			if !after[off] {
				got = append(got, off/pg)
			}
		}
		before = after
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", got, want)
		}
	}
	check(t, p)
}

// TestHarvestFeedsPolicy closes the MMU→policy loop under clock: the
// write installs referenced/dirty PTE bits, PolicyTick harvests them into
// the policy's reference bits, and the next victim scan grants second
// chances — observable as PolicySecondChances in Stats. It also pins the
// harvest counter itself.
func TestHarvestFeedsPolicy(t *testing.T) {
	p, _ := newTestPVM(t, 64, func(o *Options) { o.Policy = "clock" })
	gctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	const npages = 8
	mustRegion(t, gctx, base, npages*pg, gmi.ProtRW, c, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}

	p.PolicyTick()
	s := p.Stats()
	if s.PolicyHarvests != 1 {
		t.Fatalf("PolicyHarvests = %d, want 1", s.PolicyHarvests)
	}

	// Every page was referenced, so the first sweep must spare each one
	// once before any eviction can happen.
	if n := p.PageOut(npages); n == 0 {
		t.Fatal("PageOut made no progress")
	}
	s = p.Stats()
	if s.PolicySecondChances == 0 {
		t.Fatal("harvested referenced bits granted no second chances")
	}
	check(t, p)
}

// TestSetPolicyMigration switches the replacement policy on a live PVM:
// resident pages migrate to the new policy, counters stay monotonic, and
// reclaim keeps working afterwards.
func TestSetPolicyMigration(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	gctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	const npages = 8
	mustRegion(t, gctx, base, npages*pg, gmi.ProtRW, c, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}

	if err := p.SetPolicy("bogus"); err == nil {
		t.Fatal("SetPolicy(bogus) succeeded")
	}
	if err := p.SetPolicy("2q"); err != nil {
		t.Fatal(err)
	}
	if got := p.Policy(); got != "2q" {
		t.Fatalf("Policy() = %q after switch, want 2q", got)
	}
	// Idempotent switch.
	if err := p.SetPolicy("2q"); err != nil {
		t.Fatal(err)
	}
	check(t, p)

	// All pages must still be reclaimable through the new policy.
	evicted := 0
	for attempts := 0; evicted < npages && attempts < 4*npages; attempts++ {
		beforeN := len(residentOffs(t, p, c))
		p.PageOut(1)
		evicted += beforeN - len(residentOffs(t, p, c))
	}
	if evicted != npages {
		t.Fatalf("evicted %d pages after policy switch, want %d", evicted, npages)
	}
	// Content survives the migration and the evictions.
	for i := 0; i < npages; i++ {
		got := mustRead(t, gctx, base+gmi.VA(i*pg), 64)
		want := pattern(byte(i+1), 64)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("page %d corrupted across SetPolicy", i)
			}
		}
	}
	check(t, p)
}

// TestSetPolicyMigrationRace races live policy migration against fault
// traffic and the pageout daemon. The invariant checker's policy census
// (linked pages == policy Len) catches both failure modes a switch could
// introduce: a lost page (drained from the old instance but never
// inserted into the new, e.g. a victim whose push-out was in flight) and
// a double insert (a fault's OnInsert racing the drain). Run with -race;
// leakcheck verifies the daemon and workers wind down.
func TestSetPolicyMigrationRace(t *testing.T) {
	defer leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	stop := p.StartPageoutDaemon(8, 16, 200*time.Microsecond)

	const workers = 4
	const pagesPerWorker = 32 // 128 pages over 64 frames: constant reclaim
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		gctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		c := p.TempCacheCreate()
		mustRegion(t, gctx, base, pagesPerWorker*pg, gmi.ProtRW, c, 0)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := pattern(byte(w+1), 64)
			for i := 0; i < 1500; i++ {
				va := base + gmi.VA((i%pagesPerWorker)*pg)
				if err := gctx.Write(va, buf); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
			}
		}(w)
	}

	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		names := []string{"clock", "2q", "lru"}
		for i := 0; i < 12; i++ {
			if err := p.SetPolicy(names[i%len(names)]); err != nil {
				t.Errorf("SetPolicy: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	<-migrated
	stop()
	check(t, p) // policy census: no page lost, none double-inserted
	if got := p.Policy(); got != "lru" {
		t.Fatalf("Policy() = %q after migration loop, want lru", got)
	}

	before := p.Stats().PolicySecondChances
	if err := p.SetPolicy("clock"); err != nil {
		t.Fatal(err)
	}
	check(t, p)
	if p.Stats().PolicySecondChances < before {
		t.Fatal("PolicySecondChances went backwards across a policy switch")
	}
}

// TestPolicyUnselectKeepsPosition pins the Unselect contract the
// segmentCreate path in the reclaim pass depends on: the abandoned candidate is
// selectable again immediately, from the same queue position.
func TestPolicyUnselectKeepsPosition(t *testing.T) {
	for _, name := range []string{"lru", "clock", "2q"} {
		t.Run(name, func(t *testing.T) {
			r, err := policy.New(name)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]*policy.Node, 4)
			for i := range nodes {
				nodes[i] = &policy.Node{Owner: i}
				r.OnInsert(nodes[i])
			}
			all := func(*policy.Node) bool { return true }
			contains := func(sel []*policy.Node, n *policy.Node) bool {
				for _, s := range sel {
					if s == n {
						return true
					}
				}
				return false
			}
			first := r.SelectVictims(nil, 1, all)
			if len(first) != 1 {
				t.Fatalf("selected %d victims, want 1", len(first))
			}
			// Clock and 2Q exclude a selected node from further scans
			// until Unselect. LRU deliberately keeps no such mark: core
			// always acts on an LRU selection (drop, requeue or
			// unselect) before the exclusive lock drops, so cross-call
			// exclusion would be dead weight on the hot list.
			if name != "lru" && contains(r.SelectVictims(nil, len(nodes), all), first[0]) {
				t.Fatal("selected node offered twice before Unselect")
			}
			r.Unselect(first[0])
			again := r.SelectVictims(nil, len(nodes), all)
			if !contains(again, first[0]) {
				t.Fatal("node not selectable again after Unselect")
			}
			// LRU keeps the abandoned candidate at its queue position, so
			// it is the very next victim offered (the property the reclaim
			// pass's segmentCreate path preserved from the old list).
			if name == "lru" && again[0] != first[0] {
				t.Fatalf("lru re-offered %v first, want %v", again[0].Owner, first[0].Owner)
			}
		})
	}
}

// gatedPushSegment holds its first pushOut open until release is closed.
type gatedPushSegment struct {
	gmi.Segment
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedPushSegment) PushOut(c gmi.Cache, off, size int64) error {
	first := false
	g.once.Do(func() { first = true; close(g.entered) })
	if first {
		<-g.release
	}
	return g.Segment.PushOut(c, off, size)
}

// TestSetPolicyMigratesInFlightVictim switches policy while a reclaim
// victim's push-out is in flight. The victim stays selected in the old
// policy while the structural lock is out, so a migration that only
// sweeps would leave it behind, and the reclaim pass would then remove
// it from a new policy it was never linked into.
func TestSetPolicyMigratesInFlightVictim(t *testing.T) {
	for _, from := range []string{"clock", "2q"} {
		t.Run(from, func(t *testing.T) {
			p, _ := newTestPVM(t, 16, func(o *Options) { o.Policy = from })
			g := &gatedPushSegment{
				Segment: seg.NewSegment("file", pg, p.Clock()),
				entered: make(chan struct{}),
				release: make(chan struct{}),
			}
			c := p.CacheCreate(g)
			ctx, err := p.ContextCreate()
			if err != nil {
				t.Fatal(err)
			}
			mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
			want := pattern(0x3C, 64)
			if err := ctx.Write(base, want); err != nil {
				t.Fatal(err)
			}
			evicted := make(chan int)
			go func() { evicted <- p.PageOut(1) }()
			select {
			case <-g.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("reclaim never pushed the dirty page")
			}
			if err := p.SetPolicy("lru"); err != nil {
				t.Fatal(err)
			}
			close(g.release)
			if n := <-evicted; n != 1 {
				t.Fatalf("PageOut = %d, want 1", n)
			}
			check(t, p) // policy census: the victim left the policy it was in
			got := make([]byte, len(want))
			if err := ctx.Read(base, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("content lost across the pushed-out page's refault")
			}
			check(t, p)
		})
	}
}
