package core

import (
	"bytes"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// Direct exercises of the Table 4 downcalls outside the pull/push
// protocol: mapper-initiated fills (prefetch), explicit copy-backs, and
// move-backs.

func TestFillUpPrefetch(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("f", pg, p.Clock())
	c := p.CacheCreate(sg)

	// The mapper pushes three pages nobody asked for (prefetch).
	want := pattern(0x42, 3*pg)
	if err := c.FillUp(0, want, gmi.ProtRead|gmi.ProtExec); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 3 {
		t.Fatalf("resident=%d after prefetch", c.Resident())
	}
	// No pull-in happens when the data is touched.
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, 3*pg, gmi.ProtRW, c, 0)
	if got := mustRead(t, ctx, base, 3*pg); !bytes.Equal(got, want) {
		t.Fatal("prefetched content wrong")
	}
	if sg.PullIns() != 0 {
		t.Fatalf("prefetch did not avoid pull-ins: %d", sg.PullIns())
	}
	// The prefetch granted read-only: the first write upgrades.
	mustWrite(t, ctx, base, []byte{1})
	if sg.Upgrades() != 1 {
		t.Fatalf("upgrades=%d, want 1", sg.Upgrades())
	}
	// A dirty page refuses a later overwrite-fill (the cache is newer).
	stale := pattern(0x99, pg)
	if err := c.FillUp(0, stale, gmi.ProtRW); err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, ctx, base, 4)
	if got[0] != 1 {
		t.Fatal("fill overwrote dirty data")
	}
	check(t, p)
}

func TestCopyBackAndMoveBack(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	c := p.TempCacheCreate()
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)
	want := pattern(0x37, 2*pg)
	mustWrite(t, ctx, base, want)

	buf := make([]byte, 2*pg)
	if err := c.CopyBack(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("copyBack mismatch")
	}
	if c.Resident() != 2 {
		t.Fatal("copyBack should keep frames")
	}
	clear(buf)
	if err := c.MoveBack(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("moveBack mismatch")
	}
	if c.Resident() != 0 {
		t.Fatal("moveBack should release frames")
	}
	// Absent ranges copy back as zeroes.
	if err := c.CopyBack(4*pg, buf[:pg]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:pg], make([]byte, pg)) {
		t.Fatal("absent copyBack not zero")
	}
	check(t, p)
}

func TestLockReadOnlyRegionSharesFrames(t *testing.T) {
	p, _ := newTestPVM(t, 64, func(o *Options) { o.SmallCopyPages = -1 })
	ctx, _ := p.ContextCreate()
	src := p.TempCacheCreate()
	orig := pattern(0x27, 2*pg)
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, orig)

	cpy := p.TempCacheCreate()
	if err := src.Copy(cpy, 0, 0, 2*pg); err != nil {
		t.Fatal(err)
	}
	dbase := base + 8*pg
	r := mustRegion(t, ctx, dbase, 2*pg, gmi.ProtRead, cpy, 0)
	framesBefore := p.Memory().FreeFrames()
	// Locking a read-only window onto a deferred copy must not
	// materialize private pages: the shared originals are pinned.
	if err := r.LockInMemory(); err != nil {
		t.Fatal(err)
	}
	if used := framesBefore - p.Memory().FreeFrames(); used != 0 {
		t.Fatalf("read-only lock allocated %d frames", used)
	}
	if got := mustRead(t, ctx, dbase, 2*pg); !bytes.Equal(got, orig) {
		t.Fatal("locked read-only view wrong")
	}
	// The pinned source pages survive pressure.
	other := p.TempCacheCreate()
	obase := base + 32*pg
	mustRegion(t, ctx, obase, 50*pg, gmi.ProtRW, other, 0)
	for i := 0; i < 50; i++ {
		mustWrite(t, ctx, obase+gmi.VA(i*pg), []byte{byte(i)})
	}
	if got := mustRead(t, ctx, dbase, 2*pg); !bytes.Equal(got, orig) {
		t.Fatal("locked view lost under pressure")
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	check(t, p)
}

// TestSourceWriteBlockedWhileCopyLocked: the source of a deferred copy can
// still be written while the copy's read-only view is locked; the
// original must be preserved without disturbing the pinned mapping.
func TestSourceWriteWithLockedCopy(t *testing.T) {
	p, _ := newTestPVM(t, 64, func(o *Options) { o.SmallCopyPages = -1 })
	ctx, _ := p.ContextCreate()
	src := p.TempCacheCreate()
	orig := pattern(0x2B, pg)
	mustRegion(t, ctx, base, pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, orig)

	cpy := p.TempCacheCreate()
	if err := src.Copy(cpy, 0, 0, pg); err != nil {
		t.Fatal(err)
	}
	dbase := base + 8*pg
	r := mustRegion(t, ctx, dbase, pg, gmi.ProtRead, cpy, 0)
	if err := r.LockInMemory(); err != nil {
		t.Fatal(err)
	}
	// The source writes: the original frame is pinned by the copy's
	// lock, so the WRITER must take the new frame.
	mustWrite(t, ctx, base, pattern(0x99, pg))
	if got := mustRead(t, ctx, dbase, pg); !bytes.Equal(got, orig) {
		t.Fatal("locked copy lost the original")
	}
	if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, pattern(0x99, pg)) {
		t.Fatal("source write lost")
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	check(t, p)
}

// gatedWriteSegment holds its first getWriteAccess upcall open until
// release is closed.
type gatedWriteSegment struct {
	*seg.Segment
	entered, release chan struct{}
	calls            int
}

func (g *gatedWriteSegment) GetWriteAccess(c gmi.Cache, off, size int64) error {
	if g.calls++; g.calls == 1 {
		close(g.entered)
		<-g.release
	}
	return g.Segment.GetWriteAccess(c, off, size)
}

// TestWriteGrantRevokedDuringUpcall: a segment that withholds write
// access (setProtection) while its own getWriteAccess answer is on the
// way back — a coherence manager downgrading a page it has just granted
// — must win. The write asks again instead of proceeding on the stale
// grant.
func TestWriteGrantRevokedDuringUpcall(t *testing.T) {
	p, _ := newTestPVM(t, 16)
	inner := seg.NewSegment("f", pg, p.Clock())
	inner.Grant = gmi.ProtRead | gmi.ProtExec
	g := &gatedWriteSegment{Segment: inner, entered: make(chan struct{}), release: make(chan struct{})}
	c := p.CacheCreate(g)
	ctx, _ := p.ContextCreate()
	mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
	mustRead(t, ctx, base, 1)

	wrote := make(chan error, 1)
	go func() { wrote <- ctx.Write(base, []byte{7}) }()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("write never asked for write access")
	}
	if err := c.SetProtection(0, pg, gmi.ProtRead|gmi.ProtExec); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if g.calls != 2 {
		t.Fatalf("getWriteAccess upcalls = %d, want 2 (the revoked grant asked again)", g.calls)
	}
	if got := mustRead(t, ctx, base, 1); got[0] != 7 {
		t.Fatalf("read %#x after the write, want 0x07", got[0])
	}
	check(t, p)
}
