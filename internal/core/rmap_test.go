package core

import (
	"bytes"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// requireRmap asserts that shared's reverse map holds at most live entries
// and satisfies invariant (7): no duplicate, and no slot of its backing
// array beyond len still points at a context (a vacated slot left set
// would keep a dead address space reachable).
func requireRmap(t *testing.T, p *PVM, shared *page, live int, when string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(shared.rmap); n > live {
		t.Fatalf("%s: rmap holds %d entries for %d live mappers", when, n, live)
	}
	if err := checkRmap(shared); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestRmapBoundedByLiveMappers maps one shared segment-backed page from a
// long stream of short-lived contexts — the exec'd-text pattern of a
// fork/exec workload — and checks that the page's reverse map names only
// the live mappers: every rmap scan (the duplicate scan of a new mapping,
// a deferred copy's write-protect, a write fault's invalidation) drops the
// entries of destroyed contexts and zeroes the slots it vacates.
func TestRmapBoundedByLiveMappers(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("text", pg, p.Clock())
	want := pattern(0x5A, pg)
	sg.Store().WriteAt(0, want)
	c := p.CacheCreate(sg)

	keeper, _ := p.ContextCreate()
	mustRegion(t, keeper, base, pg, gmi.ProtRW, c, 0)
	mustRead(t, keeper, base, 1)
	shared, ok := p.gmapGet(pageKey{c.(*cache), 0}).(*page)
	if !ok {
		t.Fatal("shared page not resident after the first fault")
	}

	// mapOnce maps the page from a fresh context, then destroys it; the
	// dead context's entry stays until the page's next rmap scan.
	mapOnce := func(i int) {
		t.Helper()
		ctx, _ := p.ContextCreate()
		mustRegion(t, ctx, base, pg, gmi.ProtRead, c, 0)
		if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, want) {
			t.Fatalf("mapper %d read wrong content", i)
		}
		requireRmap(t, p, shared, 2, "after fault")
		if err := ctx.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		mapOnce(i)
	}
	check(t, p)

	// Two mappers die between scans: the next mapping's scan drops both
	// and the slot it leaves beyond len must not keep either alive.
	var pair [2]gmi.Context
	for i := range pair {
		pair[i], _ = p.ContextCreate()
		mustRegion(t, pair[i], base, pg, gmi.ProtRead, c, 0)
		mustRead(t, pair[i], base, 1)
	}
	requireRmap(t, p, shared, 3, "after paired faults")
	for _, ctx := range pair {
		if err := ctx.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	mapOnce(999)

	// A deferred copy write-protects the source page through its rmap.
	mapOnce(1000)
	dst := p.TempCacheCreate()
	if err := c.Copy(dst, 0, 0, pg); err != nil {
		t.Fatal(err)
	}
	requireRmap(t, p, shared, 1, "after copy-time write-protect")

	// The keeper's write fault invalidates the frame's read mappings
	// before installing its own writable one.
	mapOnce(1001)
	mustWrite(t, keeper, base, pattern(0x11, 8))
	if p.gmapGet(pageKey{c.(*cache), 0}) != mapEntry(shared) {
		t.Fatal("write fault replaced the shared page")
	}
	requireRmap(t, p, shared, 1, "after write-fault invalidation")
	check(t, p)
}
