package core

import (
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/policy"
)

// This file tests the replacement order (2Q, internal/policy) end to end
// through the PVM: eviction follows 2Q's admission and main queues page
// for page, the harvest tick carries MMU referenced bits into it, and an
// abandoned reclaim selection keeps its place.

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

// TestTwoQEvictionOrderExact pins 2Q's eviction order through the full
// stack, page for page. A hot set is written and re-referenced by soft
// faults, then a scan writes single-use pages after it. The scan pages
// sit nearer the admission queue's head, yet they leave first: the victim
// scan promotes the re-referenced hot pages into the main queue and
// evicts the unreferenced scan pages from the admission queue; only then
// does it reach the hot set, oldest promotion first. A recency-only order
// would evict the older hot set before the scan.
func TestTwoQEvictionOrderExact(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	gctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	ctx := gctx.(*context)
	c := p.TempCacheCreate()
	const hot, npages = 4, 8
	mustRegion(t, gctx, base, npages*pg, gmi.ProtRW, c, 0)

	for i := 0; i < hot; i++ {
		mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	for _, i := range []int{3, 1, 2, 0} {
		if err := p.HandleFault(ctx, base+gmi.VA(i*pg), gmi.ProtRead); err != nil {
			t.Fatalf("soft fault on page %d: %v", i, err)
		}
	}
	for i := hot; i < npages; i++ {
		mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	want := []int64{4, 5, 6, 7, 0, 1, 2, 3}

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
	if s := p.Stats(); s.PolicyPromotions != hot {
		t.Fatalf("PolicyPromotions = %d, want %d (the re-referenced hot set)", s.PolicyPromotions, hot)
	}
	check(t, p)
}

// TestHarvestFeedsPolicy closes the MMU→policy loop: the writes install
// referenced PTE bits, PolicyTick harvests them into the pages' reference
// bits, and the next victim scan promotes every page out of the
// admission queue instead of evicting it there — observable as
// PolicyPromotions. A second harvest, after the survivors are written
// again, makes the next scan spare each of them once in the main queue
// (PolicySecondChances). It also pins the harvest counter itself.
func TestHarvestFeedsPolicy(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	gctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	const npages = 8
	mustRegion(t, gctx, base, npages*pg, gmi.ProtRW, c, 0)
	writeAll := func(tag byte) {
		for i := 0; i < npages; i++ {
			mustWrite(t, gctx, base+gmi.VA(i*pg), pattern(tag+byte(i), 64))
		}
	}
	writeAll(1)

	p.PolicyTick()
	if s := p.Stats(); s.PolicyHarvests != 1 {
		t.Fatalf("PolicyHarvests = %d, want 1", s.PolicyHarvests)
	}
	if n := p.PageOut(1); n == 0 {
		t.Fatal("PageOut made no progress")
	}
	if s := p.Stats(); s.PolicyPromotions != npages || s.PolicySecondChances != 0 {
		t.Fatalf("promotions/second chances = %d/%d after the first scan, want %d/0",
			s.PolicyPromotions, s.PolicySecondChances, npages)
	}

	writeAll(0x40)
	resident := len(residentOffs(t, p, c))
	p.PolicyTick()
	p.PageOut(1)
	if s := p.Stats(); s.PolicySecondChances != uint64(resident) {
		t.Fatalf("PolicySecondChances = %d after the second harvest, want %d (each resident page once)",
			s.PolicySecondChances, resident)
	}
	check(t, p)
}

// TestPolicyUnselectKeepsPosition pins the Unselect contract the
// segmentCreate path in the reclaim pass depends on: a selected node is
// not offered again while its selection stands, and once abandoned it is
// selectable again immediately, from the same queue position — the very
// next victim offered. The subtest is named for the order it runs.
func TestPolicyUnselectKeepsPosition(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		q := policy.NewTwoQ()
		nodes := make([]*policy.Node, 4)
		for i := range nodes {
			nodes[i] = &policy.Node{Owner: i}
			q.OnInsert(nodes[i])
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
		first := q.SelectVictims(nil, 1, all)
		if len(first) != 1 {
			t.Fatalf("selected %d victims, want 1", len(first))
		}
		if contains(q.SelectVictims(nil, len(nodes), all), first[0]) {
			t.Fatal("selected node offered twice before Unselect")
		}
		for _, n := range nodes {
			if n != first[0] {
				q.Unselect(n) // abandon the second sweep's selections too
			}
		}
		q.Unselect(first[0])
		again := q.SelectVictims(nil, len(nodes), all)
		if len(again) == 0 || again[0] != first[0] {
			t.Fatalf("abandoned candidate %v is not the next victim offered", first[0].Owner)
		}
	})
}
