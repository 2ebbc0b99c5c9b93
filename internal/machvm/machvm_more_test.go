package machvm

import (
	"bytes"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

func TestRegionSplitAndProtect(t *testing.T) {
	m := newTestVM(t, 64)
	ctx, _ := m.ContextCreate()
	c := m.TempCacheCreate()
	r := mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, c, 0)
	if err := ctx.Write(base, pattern(0x21, 4*pg)); err != nil {
		t.Fatal(err)
	}
	r2, err := r.Split(2 * pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SetProtection(gmi.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Write(base, []byte{1}); err != nil {
		t.Fatalf("first half write: %v", err)
	}
	if err := ctx.Write(base+3*pg, []byte{1}); err != gmi.ErrProtection {
		t.Fatalf("read-only half write: %v", err)
	}
	if st := r2.Status(); st.Addr != base+2*pg || st.Size != 2*pg {
		t.Fatalf("split status: %+v", st)
	}
	if len(ctx.Regions()) != 2 {
		t.Fatal("region count wrong")
	}
	if _, ok := ctx.FindRegion(base + 3*pg); !ok {
		t.Fatal("FindRegion missed split half")
	}
}

func TestMachLockInMemory(t *testing.T) {
	m := newTestVM(t, 8)
	ctx, _ := m.ContextCreate()
	c := m.TempCacheCreate()
	r := mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)
	if err := ctx.Write(base, pattern(0xEE, 2*pg)); err != nil {
		t.Fatal(err)
	}
	if err := r.LockInMemory(); err != nil {
		t.Fatal(err)
	}
	other := m.TempCacheCreate()
	mustRegion(t, ctx, base+16*pg, 20*pg, gmi.ProtRW, other, 0)
	for i := 0; i < 20; i++ {
		if err := ctx.Write(base+16*pg+gmi.VA(i*pg), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Resident(); n != 2 {
		t.Fatalf("locked pages evicted: %d resident", n)
	}
	got := make([]byte, 2*pg)
	if err := ctx.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(0xEE, 2*pg)) {
		t.Fatal("locked content corrupted")
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestMachFlushSyncInvalidate(t *testing.T) {
	m := newTestVM(t, 64)
	sg := seg.NewSegment("f", pg, m.Clock())
	sg.Store().WriteAt(0, pattern(0x10, pg))
	c := m.CacheCreate(sg)
	ctx, _ := m.ContextCreate()
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)

	if err := ctx.Write(base, pattern(0x20, 32)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(0, 2*pg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	sg.Store().ReadAt(0, got)
	if !bytes.Equal(got, pattern(0x20, 32)) {
		t.Fatal("sync lost data")
	}
	if c.Resident() == 0 {
		t.Fatal("sync dropped pages")
	}
	if err := c.Flush(0, 2*pg); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatal("flush kept pages")
	}
	// Invalidate discards a dirty modification.
	if err := ctx.Write(base, pattern(0x30, 16)); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(0, pg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := ctx.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pattern(0x20, 16)) {
		t.Fatalf("invalidate did not restore segment view: %x", buf[:4])
	}
}

func TestMachGetWriteAccess(t *testing.T) {
	m := newTestVM(t, 64)
	sg := seg.NewSegment("coherent", pg, m.Clock())
	sg.Grant = gmi.ProtRead | gmi.ProtExec
	sg.Store().WriteAt(0, pattern(0x5A, pg))
	c := m.CacheCreate(sg)
	ctx, _ := m.ContextCreate()
	mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)

	buf := make([]byte, 8)
	if err := ctx.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if sg.Upgrades() != 0 {
		t.Fatal("read should not upgrade")
	}
	if err := ctx.Write(base, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if sg.Upgrades() != 1 {
		t.Fatalf("upgrades = %d", sg.Upgrades())
	}
}

func TestMachSegfaultAndOverlap(t *testing.T) {
	m := newTestVM(t, 64)
	ctx, _ := m.ContextCreate()
	c := m.TempCacheCreate()
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)
	if err := ctx.Read(base-pg, make([]byte, 1)); err != gmi.ErrSegmentation {
		t.Fatalf("unmapped access: %v", err)
	}
	if _, err := ctx.RegionCreate(base+pg, pg, gmi.ProtRW, c, 0); err != gmi.ErrOverlap {
		t.Fatalf("overlap: %v", err)
	}
	if _, err := ctx.RegionCreate(base+17, pg, gmi.ProtRW, c, 0); err != gmi.ErrBadRange {
		t.Fatalf("unaligned: %v", err)
	}
}

// TestMachObjectAccounting verifies objects are reclaimed when caches and
// copies die.
func TestMachObjectAccounting(t *testing.T) {
	m := newTestVM(t, 256)
	ctx, _ := m.ContextCreate()
	before := m.ObjectCount()
	src := m.TempCacheCreate()
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, src, 0)
	if err := ctx.Write(base, pattern(1, 2*pg)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		dst := m.TempCacheCreate()
		if err := src.Copy(dst, 0, 0, 2*pg); err != nil {
			t.Fatal(err)
		}
		if err := dst.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Destroy(); err != nil {
		t.Fatal(err)
	}
	after := m.ObjectCount()
	if after > before+1 { // the transit-free baseline may keep 1 live object transiently
		t.Fatalf("objects leaked: %d -> %d", before, after)
	}
	if m.Memory().FreeFrames() != m.Memory().TotalFrames() {
		t.Fatalf("frames leaked: %d/%d", m.Memory().FreeFrames(), m.Memory().TotalFrames())
	}
}

// TestMachRmapBoundedByLiveMappers checks the comparator's reverse map the
// way core's is checked: a refault of the same (ctx, va) adds no entry,
// and a stream of short-lived mappers leaves only live ones, with no
// vacated slot still pointing at a dead context.
func TestMachRmapBoundedByLiveMappers(t *testing.T) {
	m := newTestVM(t, 16)
	c := m.TempCacheCreate()
	keeper, _ := m.ContextCreate()
	mustRegion(t, keeper, base, pg, gmi.ProtRW, c, 0)
	buf := make([]byte, 1)
	if err := keeper.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	if err := keeper.Write(base, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	shared := c.(*mcache).obj.pages[0]
	requireRmap := func(live int) {
		t.Helper()
		if n := len(shared.rmap); n > live {
			t.Fatalf("rmap holds %d entries for %d live mappers", n, live)
		}
		for _, mp := range shared.rmap[len(shared.rmap):cap(shared.rmap)] {
			if mp.ctx != nil {
				t.Fatalf("rmap slot beyond len still holds context %p", mp.ctx)
			}
		}
	}
	requireRmap(1)
	for i := 0; i < 200; i++ {
		ctx, _ := m.ContextCreate()
		mustRegion(t, ctx, base, pg, gmi.ProtRead, c, 0)
		if err := ctx.Read(base, buf); err != nil || buf[0] != 0x5A {
			t.Fatalf("mapper %d read %#x: %v", i, buf[0], err)
		}
		requireRmap(2)
		if err := ctx.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
}
