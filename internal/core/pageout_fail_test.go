package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
	"chorusvm/internal/policy"
	"chorusvm/internal/seg"
)

// permFailSegment answers every pushOut with a permanent error while
// serving pullIns normally — a segment whose backing device latched a
// write failure.
type permFailSegment struct {
	gmi.Segment
	pushTries atomic.Int64
}

func (s *permFailSegment) PushOut(c gmi.Cache, off, size int64) error {
	s.pushTries.Add(1)
	return gmi.ErrIO
}

// TestEvictOneSkipsPermanentlyFailingVictim: a dirty victim whose
// pushOut fails permanently used to wedge reclaim — the single-page
// reclaim step returned the error on the first candidate, so the daemon
// and PageOut made no progress even with plenty of evictable pages
// behind it. The failing victim must be requeued and the other
// candidates evicted.
func TestEvictOneSkipsPermanentlyFailingVictim(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 32)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}

	// The bad cache's page is written first, so it sits at the LRU tail —
	// the first candidate every reclaim pass considers.
	bad := &permFailSegment{Segment: closeOnCleanup(t, seg.NewSegment("bad", pg, p.Clock()))}
	cbad := p.CacheCreate(bad)
	badBase := base + gmi.VA(64*pg)
	mustRegion(t, ctx, badBase, pg, gmi.ProtRW, cbad, 0)
	mustWrite(t, ctx, badBase, pattern(0xBB, 64))

	good := closeOnCleanup(t, seg.NewSegment("good", pg, p.Clock()))
	cgood := p.CacheCreate(good)
	const npages = 6
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, cgood, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}

	if n := p.PageOut(npages); n != npages {
		t.Fatalf("PageOut reclaimed %d pages, want %d (failing victim must not wedge reclaim)", n, npages)
	}
	if bad.pushTries.Load() == 0 {
		t.Fatal("the failing victim's pushOut was never attempted")
	}
	if got := good.PushOuts(); got != npages {
		t.Fatalf("good segment served %d pushOuts, want %d", got, npages)
	}
	// The failing page survives, dirty, with its content intact.
	got := mustRead(t, ctx, badBase, 64)
	want := pattern(0xBB, 64)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("failing victim's content corrupted at byte %d", i)
		}
	}
	// With the failing page as the only reclaimable candidate left, a
	// further PageOut makes no progress (but does not hang or panic).
	if n := p.PageOut(1); n != 0 {
		t.Fatalf("PageOut reclaimed %d with only the failing victim left, want 0", n)
	}
	check(t, p)
}

// TestReserveFramesReportsPushError: when reclaim exhausts every
// candidate and the only reason was a failing pushOut, the allocation
// that needed the frame must surface that error, not a bare ErrNoMemory.
func TestReserveFramesReportsPushError(t *testing.T) {
	leakcheck.Check(t)
	// No swap allocator: dirty temporary pages cannot be assigned a
	// segment, so the bad cache's pages are the only push candidates.
	p, _ := newTestPVM(t, 8, func(o *Options) { o.SegAlloc = nil })
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	bad := &permFailSegment{Segment: closeOnCleanup(t, seg.NewSegment("bad", pg, p.Clock()))}
	cbad := p.CacheCreate(bad)
	const npages = 6
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, cbad, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}

	// Burn the remaining free frames on a temporary cache, then one more:
	// the allocation must evict, every candidate fails, and the push
	// error comes back out of the fault.
	ct := p.TempCacheCreate()
	tmpBase := base + gmi.VA(64*pg)
	mustRegion(t, ctx, tmpBase, 8*pg, gmi.ProtRW, ct, 0)
	var faultErr error
	for i := 0; i < 8; i++ {
		if faultErr = ctx.Write(tmpBase+gmi.VA(i*pg), []byte{1}); faultErr != nil {
			break
		}
	}
	if faultErr == nil {
		t.Fatal("allocation never hit reclaim")
	}
	if !errors.Is(faultErr, gmi.ErrIO) {
		t.Fatalf("fault error = %v, want the victim's push error (ErrIO)", faultErr)
	}
	if bad.pushTries.Load() == 0 {
		t.Fatal("no pushOut was attempted before reporting failure")
	}
}

// TestAsyncBatchContinuesPastPermanentFailure: a permanent pushOut
// failure in the middle of a concurrent eviction batch must not stop the
// other victims from being reclaimed, and the failing pages must be
// requeued away from the LRU tail.
func TestAsyncBatchContinuesPastPermanentFailure(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 32)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	bad := &permFailSegment{Segment: closeOnCleanup(t, seg.NewSegment("bad", pg, p.Clock()))}
	cbad := p.CacheCreate(bad)
	badBase := base + gmi.VA(64*pg)
	mustRegion(t, ctx, badBase, 2*pg, gmi.ProtRW, cbad, 0)
	mustWrite(t, ctx, badBase, pattern(0xB1, 64))
	mustWrite(t, ctx, badBase+pg, pattern(0xB2, 64))

	good := closeOnCleanup(t, seg.NewSegment("good", pg, p.Clock()))
	cgood := p.CacheCreate(good)
	const npages = 6
	mustRegion(t, ctx, base, npages*pg, gmi.ProtRW, cgood, 0)
	for i := 0; i < npages; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i+1), 64))
	}

	// A partial batch: the two failing pages sit at the LRU tail, so the
	// batch picks them plus the two oldest good pages.
	p.mu.Lock()
	evicted, failed, batchErr := p.evict(4)
	p.mu.Unlock()
	if evicted != 2 || failed != 2 {
		t.Fatalf("batch evicted %d pages and requeued %d, want 2 and 2 (the good and the failing ones in the batch)", evicted, failed)
	}
	if !errors.Is(batchErr, gmi.ErrIO) {
		t.Fatalf("batch error = %v, want the failing victims' ErrIO", batchErr)
	}
	if got := bad.pushTries.Load(); got != 2 {
		t.Fatalf("failing segment saw %d push attempts, want 2", got)
	}
	// Both failing pages were requeued to the MRU end: the coldest
	// candidate the policy offers next is a good page, so the next pass
	// tries fresh candidates first.
	p.mu.Lock()
	var next *page
	if sel := p.pol.SelectVictims(nil, 1, func(*policy.Node) bool { return true }); len(sel) > 0 {
		next = sel[0].Owner.(*page)
		p.pol.Unselect(sel[0])
	}
	p.mu.Unlock()
	if next == nil || next.cache == cbad.(*cache) {
		t.Fatal("failing victim still the coldest policy candidate after the batch")
	}
	// And the next pass reclaims the rest of the good pages.
	if n := p.PageOut(npages - 2); n != npages-2 {
		t.Fatalf("follow-up PageOut reclaimed %d, want %d", n, npages-2)
	}
	check(t, p)
}
