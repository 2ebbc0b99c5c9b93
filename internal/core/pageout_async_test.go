package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// TestSwapReleasedOnCacheDestroy is the regression test for the swap
// leak: pages pushed to a unilaterally created swap segment used to
// survive the destruction of their cache forever. Destroying the cache
// must now release the segment's backing pages, so the allocator's page
// count returns to baseline.
func TestSwapReleasedOnCacheDestroy(t *testing.T) {
	p, swap := newTestPVM(t, 8)
	ctx, _ := p.ContextCreate()
	c := p.TempCacheCreate()
	const npages = 6
	r := mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, c, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	// Force the dirty pages out: the first reclaim assigns a swap segment
	// via segmentCreate, the rest push through it.
	if n := p.PageOut(npages + 1); n == 0 {
		t.Fatal("PageOut reclaimed nothing")
	}
	if swap.Created() == 0 {
		t.Fatal("no swap segment was created")
	}
	if swap.Pages() == 0 {
		t.Fatal("no pages reached the swap segment")
	}

	if err := r.Destroy(); err != nil {
		t.Fatalf("region Destroy: %v", err)
	}
	if err := c.Destroy(); err != nil {
		t.Fatalf("cache Destroy: %v", err)
	}
	if got := swap.Pages(); got != 0 {
		t.Fatalf("swap still holds %d pages after cache destruction (leak)", got)
	}
	check(t, p)
}

// recordingAllocator hands out swap segments from an inner allocator and
// remembers each one.
type recordingAllocator struct {
	inner *seg.SwapAllocator
	mu    sync.Mutex
	segs  []*seg.Segment
}

func (a *recordingAllocator) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	s, err := a.inner.SegmentCreate(c)
	if sg, ok := s.(*seg.Segment); ok {
		a.mu.Lock()
		a.segs = append(a.segs, sg)
		a.mu.Unlock()
	}
	return s, err
}

// TestSwapClosedOnCacheDestroy: a cache owns the swap segment it created
// with segmentCreate, so destroying the cache closes that segment (and
// stops its engine's workers) before Destroy returns, not just its pages.
func TestSwapClosedOnCacheDestroy(t *testing.T) {
	leakcheck.Check(t)
	p, swap := newTestPVM(t, 8)
	rec := &recordingAllocator{inner: swap}
	p.SetSegmentAllocator(rec)
	ctx, _ := p.ContextCreate()
	c := p.TempCacheCreate()
	const npages = 6
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, c, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	if n := p.PageOut(npages + 1); n == 0 {
		t.Fatal("PageOut reclaimed nothing")
	}
	if len(rec.segs) != 1 {
		t.Fatalf("%d swap segments created, want 1", len(rec.segs))
	}
	sg := rec.segs[0]
	if err := sg.Store().Sync(); err != nil {
		t.Fatalf("swap segment unusable before Destroy: %v", err)
	}
	if err := c.Destroy(); err != nil {
		t.Fatalf("cache Destroy: %v", err)
	}
	if err := sg.Store().WriteAt(0, pattern(9, pg)); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("swap segment write after its cache was destroyed = %v, want ErrClosed", err)
	}
	if got := swap.Pages(); got != 0 {
		t.Fatalf("swap still holds %d pages after cache destruction (leak)", got)
	}
	check(t, p)
}

// TestDaemonAsyncBatchEviction drives the daemon hard enough that the
// batch path issues concurrent pushOuts, then verifies content integrity
// and that the batch path actually ran.
func TestDaemonAsyncBatchEviction(t *testing.T) {
	p, _ := newTestPVM(t, 32)
	stop := p.StartPageoutDaemon(8, 24, 200*time.Microsecond)
	defer stop()

	ctx, _ := p.ContextCreate()
	c := p.TempCacheCreate()
	const npages = 96 // 3x physical
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, c, 0)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < npages; i++ {
			mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Memory().FreeFrames() >= 8 && p.Stats().AsyncBatches > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.AsyncBatches == 0 {
		t.Fatal("daemon never used the async batch path")
	}
	// Everything still reads back after concurrent pushes and re-pulls.
	for i := 0; i < npages; i++ {
		got := mustRead(t, ctx, base+gmi.VA(i*pg), 64)
		want := pattern(byte(i+1), 64)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("page %d corrupted under async batch eviction", i)
			}
		}
	}
	check(t, p)
}

// dirtyTempPages writes npages pages of a fresh temporary cache, which
// has no segment until reclaim assigns it one.
func dirtyTempPages(t *testing.T, p *PVM, npages int) gmi.Context {
	t.Helper()
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, int64(npages)*pg, gmi.ProtRW, p.TempCacheCreate(), 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}
	return ctx
}

// TestEvictPassAssignsOneSwapSegment: a multi-victim pass over dirty
// pages of a temporary cache without a segment makes one segmentCreate
// upcall — not one per victim — and frees nothing; the next pass pushes
// the same pages out concurrently.
func TestEvictPassAssignsOneSwapSegment(t *testing.T) {
	leakcheck.Check(t)
	p, swap := newTestPVM(t, 32)
	const npages = 6
	ctx := dirtyTempPages(t, p, npages)
	free := p.Memory().FreeFrames()

	p.mu.Lock()
	done, failed, err := p.evict(4)
	p.mu.Unlock()
	if done != 1 || failed != 0 || err != nil {
		t.Fatalf("first pass = (%d, %d, %v), want one step (the swap assignment)", done, failed, err)
	}
	if got := swap.Created(); got != 1 {
		t.Fatalf("%d swap segments created, want 1", got)
	}
	if got := p.Memory().FreeFrames(); got != free {
		t.Fatalf("FreeFrames %d -> %d; a swap assignment frees nothing", free, got)
	}
	st := p.Stats()
	if st.PushOuts != 0 || st.AsyncBatches != 0 {
		t.Fatalf("first pass pushed (PushOuts=%d, AsyncBatches=%d)", st.PushOuts, st.AsyncBatches)
	}

	p.mu.Lock()
	done, failed, err = p.evict(4)
	p.mu.Unlock()
	if done != 4 || failed != 0 || err != nil {
		t.Fatalf("second pass = (%d, %d, %v), want 4 pages pushed out", done, failed, err)
	}
	st = p.Stats()
	if st.PushOuts != 4 || st.AsyncBatches != 1 {
		t.Fatalf("second pass: PushOuts=%d AsyncBatches=%d, want 4 and 1", st.PushOuts, st.AsyncBatches)
	}
	if got := p.Memory().FreeFrames(); got != free+4 {
		t.Fatalf("FreeFrames %d after the push pass, want %d", got, free+4)
	}
	if swap.Created() != 1 || swap.Pages() != 4 {
		t.Fatalf("swap: %d segments, %d pages; want 1 and 4", swap.Created(), swap.Pages())
	}
	for i := 0; i < npages; i++ {
		got, want := mustRead(t, ctx, base+gmi.VA(i*pg), 64), pattern(byte(i+1), 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted by the push pass", i)
		}
	}
	check(t, p)
}

// TestPageOutCountsSwapAssignment pins PageOut's return value: a step is
// a freed frame or a swap assignment, so PageOut(1) on a temporary
// cache's dirty pages returns 1 with FreeFrames unchanged, and only the
// next step frees a frame.
func TestPageOutCountsSwapAssignment(t *testing.T) {
	p, swap := newTestPVM(t, 32)
	dirtyTempPages(t, p, 3)
	free := p.Memory().FreeFrames()
	if n := p.PageOut(1); n != 1 {
		t.Fatalf("PageOut(1) = %d, want 1", n)
	}
	if got := p.Memory().FreeFrames(); got != free || swap.Created() != 1 {
		t.Fatalf("after the assignment step: FreeFrames %d -> %d, %d swap segments; want unchanged and 1",
			free, got, swap.Created())
	}
	if n := p.PageOut(1); n != 1 {
		t.Fatalf("second PageOut(1) = %d, want 1", n)
	}
	if got := p.Memory().FreeFrames(); got != free+1 {
		t.Fatalf("FreeFrames %d after the push step, want %d", got, free+1)
	}
	check(t, p)
}
