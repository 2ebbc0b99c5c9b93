package core

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// Test scaffolding: a PVM with a swap allocator over a private clock, so
// tests are independent and deterministic.

func newTestPVM(t *testing.T, frames int, opts ...func(*Options)) (*PVM, *seg.SwapAllocator) {
	t.Helper()
	o := Options{Frames: frames, PageSize: 8192}
	o.fill()
	swap := seg.NewSwapAllocator(o.PageSize, o.Clock)
	o.SegAlloc = swap
	for _, f := range opts {
		f(&o)
	}
	p := New(o)
	t.Cleanup(func() {
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("invariants at teardown: %v", err)
		}
	})
	t.Cleanup(func() { _ = swap.Close() })
	return p, swap
}

// closeOnCleanup closes a segment when the test ends, stopping its
// engine's workers before a leak check counts goroutines.
func closeOnCleanup(t *testing.T, sg *seg.Segment) *seg.Segment {
	t.Cleanup(func() { _ = sg.Close() })
	return sg
}

func check(t *testing.T, p *PVM) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// pattern fills a buffer with a deterministic byte pattern seeded by tag.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

func mustRegion(t *testing.T, ctx gmi.Context, addr gmi.VA, size int64, prot gmi.Prot, c gmi.Cache, off int64) gmi.Region {
	t.Helper()
	r, err := ctx.RegionCreate(addr, size, prot, c, off)
	if err != nil {
		t.Fatalf("RegionCreate(%#x, %d): %v", uint64(addr), size, err)
	}
	return r
}

func mustWrite(t *testing.T, ctx gmi.Context, va gmi.VA, data []byte) {
	t.Helper()
	if err := ctx.Write(va, data); err != nil {
		t.Fatalf("Write(%#x, %d bytes): %v", uint64(va), len(data), err)
	}
}

func mustRead(t *testing.T, ctx gmi.Context, va gmi.VA, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := ctx.Read(va, buf); err != nil {
		t.Fatalf("Read(%#x, %d bytes): %v", uint64(va), n, err)
	}
	return buf
}

const (
	pg   = 8192
	base = gmi.VA(0x10000)
)

func TestZeroFillAllocation(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, c, 0)

	// Untouched memory reads as zero.
	got := mustRead(t, ctx, base+pg, 100)
	if !bytes.Equal(got, make([]byte, 100)) {
		t.Fatalf("fresh page not zero-filled: %v", got[:8])
	}
	// Writes stick, spanning page boundaries.
	data := pattern(0xA5, pg+123)
	mustWrite(t, ctx, base+pg/2, data)
	if got := mustRead(t, ctx, base+pg/2, len(data)); !bytes.Equal(got, data) {
		t.Fatal("readback mismatch after cross-page write")
	}
	st := p.Stats()
	if st.ZeroFills == 0 {
		t.Fatal("expected zero-fill activity")
	}
	check(t, p)
	if err := ctx.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := c.Destroy(); err != nil {
		t.Fatal(err)
	}
	if p.Memory().FreeFrames() != p.Memory().TotalFrames() {
		t.Fatalf("frames leaked: %d/%d free", p.Memory().FreeFrames(), p.Memory().TotalFrames())
	}
}

func TestSegmentBackedMapping(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("file", pg, p.Clock())
	want := pattern(0x3C, 3*pg)
	sg.Store().WriteAt(0, want)

	c := p.CacheCreate(sg)
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, 3*pg, gmi.ProtRW, c, 0)

	if got := mustRead(t, ctx, base, 3*pg); !bytes.Equal(got, want) {
		t.Fatal("mapped read does not match segment content")
	}
	if n := sg.PullIns(); n != 3 {
		t.Fatalf("pullIns = %d, want 3", n)
	}

	// Modify one page, flush, verify the store.
	mod := pattern(0x77, 10)
	mustWrite(t, ctx, base+pg+5, mod)
	if err := c.Sync(0, 3*pg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	sg.Store().ReadAt(pg+5, got)
	if !bytes.Equal(got, mod) {
		t.Fatal("sync did not reach the store")
	}
	check(t, p)
}

// TestUnifiedCache checks the dual-caching answer: mapped access and
// explicit ReadAt/WriteAt see one consistent cache (section 3.2).
func TestUnifiedCache(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("file", pg, p.Clock())
	c := p.CacheCreate(sg)
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)

	// Explicit write, mapped read.
	data := pattern(0x42, 256)
	if err := c.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, ctx, base+100, 256); !bytes.Equal(got, data) {
		t.Fatal("mapped access does not see explicit write")
	}
	// Mapped write, explicit read.
	data2 := pattern(0x24, 256)
	mustWrite(t, ctx, base+pg, data2)
	got := make([]byte, 256)
	if err := c.ReadAt(pg, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data2) {
		t.Fatal("explicit access does not see mapped write")
	}
	// Exactly one pull-in per page: one cache, not two.
	if n := sg.PullIns(); n != 2 {
		t.Fatalf("pullIns = %d, want 2 (one per page, single cache)", n)
	}
	check(t, p)
}

// TestHistoryCopyOnWrite is the paper's simple case (Figure 3.a): cpy1 is
// a deferred copy of src; writes on either side stay private and the
// other side keeps the original.
func TestHistoryCopyOnWrite(t *testing.T) {
	p, _ := newTestPVM(t, 256)
	ctx, _ := p.ContextCreate()

	src := p.TempCacheCreate()
	const npages = 8
	srcData := pattern(0x11, npages*pg)
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, srcData)

	cpy := p.TempCacheCreate()
	if err := src.Copy(cpy, 0, 0, npages*pg); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CowBreaks != 0 {
		t.Fatal("deferred copy did real copies eagerly")
	}

	cbase := base + gmi.VA(npages*pg)
	mustRegion(t, ctx, cbase, npages*pg, gmi.ProtRW, cpy, 0)

	// The copy reads the source's data without copying.
	if got := mustRead(t, ctx, cbase, npages*pg); !bytes.Equal(got, srcData) {
		t.Fatal("copy does not see source content")
	}
	if p.Stats().CowBreaks != 0 {
		t.Fatal("reads of the copy materialized pages")
	}
	check(t, p)

	// Source write: the copy must keep the original (write violation in
	// the source pushes the original into its history object, which is
	// the copy).
	mustWrite(t, ctx, base+2*pg, pattern(0x99, pg))
	if got := mustRead(t, ctx, cbase+2*pg, pg); !bytes.Equal(got, srcData[2*pg:3*pg]) {
		t.Fatal("copy lost original after source write")
	}
	if p.Stats().HistoryPushes == 0 {
		t.Fatal("source write did not push the original into the history")
	}

	// Copy write: the source must be unaffected.
	mustWrite(t, ctx, cbase+3*pg, pattern(0x55, pg))
	if got := mustRead(t, ctx, base+3*pg, pg); !bytes.Equal(got, srcData[3*pg:4*pg]) {
		t.Fatal("source corrupted by copy write")
	}
	if err := p.HistoryShape(); err != nil {
		t.Fatal(err)
	}
	check(t, p)

	// Child exits: its cache is simply discarded (the normal Unix case);
	// the source becomes writable again without pushes.
	if err := cpy.Destroy(); err != nil {
		t.Fatal(err)
	}
	before := p.Stats().HistoryPushes
	mustWrite(t, ctx, base+4*pg, pattern(0x66, pg))
	if p.Stats().HistoryPushes != before {
		t.Fatal("write after copy death still pushed history")
	}
	check(t, p)
}

// TestFigure3b reproduces the paper's Figure 3.b: a copy of a copy.
func TestFigure3b(t *testing.T) {
	p, _ := newTestPVM(t, 256)
	ctx, _ := p.ContextCreate()

	src := p.TempCacheCreate()
	const npages = 3
	orig := pattern(0x10, npages*pg)
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, orig)

	// src pages 1-3 are copied into cpy1; page 2 of src is modified.
	cpy1 := p.TempCacheCreate()
	if err := src.Copy(cpy1, 0, 0, npages*pg); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, ctx, base+1*pg, pattern(0x20, pg)) // "page 2" (index 1)

	// Then cpy1 is copied into copyOfCpy1; page 3 of cpy1 is modified.
	cpy2 := p.TempCacheCreate()
	if err := cpy1.Copy(cpy2, 0, 0, npages*pg); err != nil {
		t.Fatal(err)
	}
	c1base := base + gmi.VA(npages*pg)
	c2base := c1base + gmi.VA(npages*pg)
	mustRegion(t, ctx, c1base, npages*pg, gmi.ProtRW, cpy1, 0)
	mustRegion(t, ctx, c2base, npages*pg, gmi.ProtRW, cpy2, 0)
	mustWrite(t, ctx, c1base+2*pg, pattern(0x30, pg)) // "page 3" (index 2)

	// Per the figure: page 1 of both copies is read from src; page 2 of
	// copyOfCpy1 is read from cpy1 (which received the original when src
	// modified it); page 3 of copyOfCpy1 keeps the original value that
	// both src and copyOfCpy1 got frames for when cpy1 wrote.
	if got := mustRead(t, ctx, c1base, pg); !bytes.Equal(got, orig[:pg]) {
		t.Fatal("cpy1 page 1 should come from src")
	}
	if got := mustRead(t, ctx, c2base, pg); !bytes.Equal(got, orig[:pg]) {
		t.Fatal("copyOfCpy1 page 1 should come from src")
	}
	if got := mustRead(t, ctx, base+pg, pg); !bytes.Equal(got, pattern(0x20, pg)) {
		t.Fatal("src page 2 should hold its modified value")
	}
	if got := mustRead(t, ctx, c2base+pg, pg); !bytes.Equal(got, orig[pg:2*pg]) {
		t.Fatal("copyOfCpy1 page 2 should read the original from cpy1")
	}
	if got := mustRead(t, ctx, c1base+pg, pg); !bytes.Equal(got, orig[pg:2*pg]) {
		t.Fatal("cpy1 page 2 should hold the original pushed by src's write")
	}
	if got := mustRead(t, ctx, c1base+2*pg, pg); !bytes.Equal(got, pattern(0x30, pg)) {
		t.Fatal("cpy1 page 3 should hold its modified value")
	}
	if got := mustRead(t, ctx, c2base+2*pg, pg); !bytes.Equal(got, orig[2*pg:3*pg]) {
		t.Fatal("copyOfCpy1 page 3 should keep the original value")
	}
	if err := p.HistoryShape(); err != nil {
		t.Fatal(err)
	}
	check(t, p)
}

// TestFigure3cd reproduces Figures 3.c and 3.d: repeated copies from the
// same source force working objects into the tree.
func TestFigure3cd(t *testing.T) {
	p, _ := newTestPVM(t, 256)
	ctx, _ := p.ContextCreate()

	src := p.TempCacheCreate()
	const npages = 4
	orig := pattern(0x40, npages*pg)
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, orig)

	addr := base + gmi.VA(npages*pg)
	newCopy := func() (gmi.Cache, gmi.VA) {
		c := p.TempCacheCreate()
		if err := src.Copy(c, 0, 0, npages*pg); err != nil {
			t.Fatal(err)
		}
		a := addr
		addr += gmi.VA(npages * pg)
		mustRegion(t, ctx, a, npages*pg, gmi.ProtRW, c, 0)
		return c, a
	}

	cpy1, a1 := newCopy()
	cpy2, a2 := newCopy() // forces w1 (Figure 3.c)

	// Modify page 3 of src, page 3 of cpy1, page 4 of cpy2 (the figure's
	// scenario).
	mustWrite(t, ctx, base+2*pg, pattern(0x50, pg))
	mustWrite(t, ctx, a1+2*pg, pattern(0x60, pg))
	mustWrite(t, ctx, a2+3*pg, pattern(0x70, pg))

	// Both copies still see original pages 1, 2; cpy1 sees its own page
	// 3; cpy2 sees the original page 3 (via w1) and its own page 4.
	for _, tc := range []struct {
		at   gmi.VA
		want []byte
		desc string
	}{
		{a1, orig[:pg], "cpy1 page 1"},
		{a2, orig[:pg], "cpy2 page 1"},
		{a1 + 2*pg, pattern(0x60, pg), "cpy1 page 3 (own)"},
		{a2 + 2*pg, orig[2*pg : 3*pg], "cpy2 page 3 (original via w1)"},
		{a2 + 3*pg, pattern(0x70, pg), "cpy2 page 4 (own)"},
		{a1 + 3*pg, orig[3*pg:], "cpy1 page 4 (original)"},
	} {
		if got := mustRead(t, ctx, tc.at, pg); !bytes.Equal(got, tc.want) {
			t.Fatalf("%s mismatch", tc.desc)
		}
	}
	if err := p.HistoryShape(); err != nil {
		t.Fatalf("after 2 copies: %v", err)
	}

	// Third copy forces w2 (Figure 3.d).
	cpy3, a3 := newCopy()
	if got := mustRead(t, ctx, a3+2*pg, pg); !bytes.Equal(got, pattern(0x50, pg)) {
		t.Fatal("cpy3 page 3 should see src's current (modified) value")
	}
	if got := mustRead(t, ctx, a2+2*pg, pg); !bytes.Equal(got, orig[2*pg:3*pg]) {
		t.Fatal("cpy2 page 3 changed after third copy")
	}
	if err := p.HistoryShape(); err != nil {
		t.Fatalf("after 3 copies: %v", err)
	}
	check(t, p)

	for _, c := range []gmi.Cache{cpy1, cpy2, cpy3} {
		if err := c.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	// With all copies gone, the working objects must have been reaped.
	check(t, p)
}

// TestPerPageStubs exercises the section 4.3 small-copy path directly.
func TestPerPageStubs(t *testing.T) {
	p, _ := newTestPVM(t, 64, func(o *Options) { o.SmallCopyPages = 8 })
	ctx, _ := p.ContextCreate()

	src := p.TempCacheCreate()
	orig := pattern(0x88, 2*pg)
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, orig)

	dst := p.TempCacheCreate()
	if err := src.Copy(dst, 0, 0, 2*pg); err != nil {
		t.Fatal(err)
	}
	if p.Stats().StubBreaks != 0 {
		t.Fatal("small copy materialized eagerly")
	}
	dbase := base + 4*pg
	mustRegion(t, ctx, dbase, 2*pg, gmi.ProtRW, dst, 0)

	// Read through the stub.
	if got := mustRead(t, ctx, dbase, 2*pg); !bytes.Equal(got, orig) {
		t.Fatal("stub read mismatch")
	}
	// Write the destination: breaks its stub only.
	mustWrite(t, ctx, dbase, pattern(0x01, pg))
	if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, orig[:pg]) {
		t.Fatal("source corrupted by destination write")
	}
	// Write the source: the remaining stub must keep the original.
	mustWrite(t, ctx, base+pg, pattern(0x02, pg))
	if got := mustRead(t, ctx, dbase+pg, pg); !bytes.Equal(got, orig[pg:]) {
		t.Fatal("destination lost original after source write")
	}
	check(t, p)
}

// TestPageOutAndBack forces eviction through a tiny frame pool and checks
// content integrity across swap.
func TestPageOutAndBack(t *testing.T) {
	p, swap := newTestPVM(t, 8)
	ctx, _ := p.ContextCreate()
	c := p.TempCacheCreate()
	const npages = 24 // 3x physical memory
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, c, 0)

	want := make([][]byte, npages)
	for i := range want {
		want[i] = pattern(byte(i+1), pg)
		mustWrite(t, ctx, base+gmi.VA(i*pg), want[i])
	}
	st := p.Stats()
	if st.Evictions == 0 || st.PushOuts == 0 {
		t.Fatalf("expected eviction traffic, got %+v", st)
	}
	if swap.Created() == 0 {
		t.Fatal("temporary cache never got a swap segment (segmentCreate)")
	}
	for i := range want {
		if got := mustRead(t, ctx, base+gmi.VA(i*pg), pg); !bytes.Equal(got, want[i]) {
			t.Fatalf("page %d corrupted across swap", i)
		}
	}
	check(t, p)
}

// TestLockInMemory checks the real-time pin: locked pages survive memory
// pressure and their mappings never change.
func TestLockInMemory(t *testing.T) {
	p, _ := newTestPVM(t, 8)
	ctx, _ := p.ContextCreate()

	locked := p.TempCacheCreate()
	r := mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, locked, 0)
	mustWrite(t, ctx, base, pattern(0xEE, 2*pg))
	if err := r.LockInMemory(); err != nil {
		t.Fatal(err)
	}

	// Thrash the rest of memory.
	other := p.TempCacheCreate()
	obase := base + 16*pg
	mustRegion(t, ctx, obase, 20*pg, gmi.ProtRW, other, 0)
	for i := 0; i < 20; i++ {
		mustWrite(t, ctx, obase+gmi.VA(i*pg), pattern(byte(i), pg))
	}

	// The locked pages must still be resident and mapped.
	if n := locked.Resident(); n != 2 {
		t.Fatalf("locked cache resident = %d, want 2", n)
	}
	if got := mustRead(t, ctx, base, 2*pg); !bytes.Equal(got, pattern(0xEE, 2*pg)) {
		t.Fatal("locked content corrupted")
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	check(t, p)
}

// TestMoveRetagsFrames checks that aligned moves recycle frames instead of
// copying (section 3.3.1).
func TestMoveRetagsFrames(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	ctx, _ := p.ContextCreate()
	src := p.TempCacheCreate()
	mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, src, 0)
	want := pattern(0xAB, 4*pg)
	mustWrite(t, ctx, base, want)

	bcopies := p.Clock().Snapshot()

	dst := p.TempCacheCreate()
	if err := src.Move(dst, 0, 0, 4*pg); err != nil {
		t.Fatal(err)
	}
	if n := p.Clock().CountSince(bcopies, cost.EvBcopyPage); n != 0 {
		t.Fatalf("move copied %d pages; should retag", n)
	}
	dbase := base + 8*pg
	mustRegion(t, ctx, dbase, 4*pg, gmi.ProtRW, dst, 0)
	if got := mustRead(t, ctx, dbase, 4*pg); !bytes.Equal(got, want) {
		t.Fatal("moved content mismatch")
	}
	if n := dst.Resident(); n != 4 {
		t.Fatalf("dst resident = %d, want 4 retagged pages", n)
	}
	check(t, p)
}

// TestRegionSemantics covers segmentation faults, protection, split and
// overlap rejection.
func TestRegionSemantics(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	ctx, _ := p.ContextCreate()
	c := p.TempCacheCreate()
	r := mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, c, 0)

	// Access outside any region.
	if err := ctx.Read(base-pg, make([]byte, 8)); err != gmi.ErrSegmentation {
		t.Fatalf("unmapped read: got %v, want ErrSegmentation", err)
	}
	// Overlapping region rejected.
	if _, err := ctx.RegionCreate(base+pg, pg, gmi.ProtRW, c, 0); err != gmi.ErrOverlap {
		t.Fatalf("overlap: got %v", err)
	}
	// Write to a read-only region.
	ro := p.TempCacheCreate()
	mustRegion(t, ctx, base+8*pg, pg, gmi.ProtRead, ro, 0)
	if err := ctx.Write(base+8*pg, []byte{1}); err != gmi.ErrProtection {
		t.Fatalf("read-only write: got %v", err)
	}

	// Split and re-protect half.
	r2, err := r.Split(2 * pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SetProtection(gmi.ProtRead); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, ctx, base, []byte{42})                                   // first half still writable
	if err := ctx.Write(base+3*pg, []byte{1}); err != gmi.ErrProtection { // second not
		t.Fatalf("split protection: got %v", err)
	}
	if got := r2.Status(); got.Addr != base+2*pg || got.Size != 2*pg || got.Offset != 2*pg {
		t.Fatalf("split status wrong: %+v", got)
	}
	if rs := ctx.Regions(); len(rs) != 3 {
		t.Fatalf("region count = %d, want 3", len(rs))
	}
	if _, ok := ctx.FindRegion(base + 3*pg); !ok {
		t.Fatal("FindRegion missed split region")
	}
	check(t, p)
}

// TestGetWriteAccessUpcall checks the granted-access upgrade path: a
// segment granting read-only forces getWriteAccess on first write.
func TestGetWriteAccessUpcall(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("coherent", pg, p.Clock())
	sg.Grant = gmi.ProtRead | gmi.ProtExec
	sg.Store().WriteAt(0, pattern(0x5A, pg))

	c := p.CacheCreate(sg)
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)

	if got := mustRead(t, ctx, base, 16); !bytes.Equal(got, pattern(0x5A, pg)[:16]) {
		t.Fatal("read mismatch")
	}
	if sg.Upgrades() != 0 {
		t.Fatal("read should not request write access")
	}
	mustWrite(t, ctx, base, []byte{9})
	if sg.Upgrades() != 1 {
		t.Fatalf("upgrades = %d, want 1", sg.Upgrades())
	}
	check(t, p)
}

// TestStatsStringAndDeltaCoverEveryField walks Stats by reflection, so a
// counter added to the struct but forgotten in String or Delta fails
// here: every field gets a distinct value, which String must print, and
// Delta must difference field by field.
func TestStatsStringAndDeltaCoverEveryField(t *testing.T) {
	var s, prev Stats
	sv, pv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(uint64(3000 + 7*i))
		pv.Field(i).SetUint(uint64(1000 + i))
	}
	out := s.String() + " "
	d := reflect.ValueOf(s.Delta(prev))
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if want := "=" + strconv.Itoa(3000+7*i) + " "; !strings.Contains(out, want) {
			t.Errorf("String omits %s (no %q in %q)", name, want, out)
		}
		if got, want := d.Field(i).Uint(), uint64(2000+6*i); got != want {
			t.Errorf("Delta.%s = %d, want %d", name, got, want)
		}
	}
}
