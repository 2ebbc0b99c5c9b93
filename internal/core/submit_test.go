package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// manualPager wraps a real segment driver but holds every SubmitPull
// request for the test to complete by hand, so the test controls exactly
// when the device "finishes" and how many submissions happened.
type manualPager struct {
	gmi.Pager
	submits atomic.Int64

	mu   sync.Mutex
	reqs []*gmi.PageRequest
	// arrived is signalled (non-blockingly) on every submission.
	arrived chan struct{}
}

func newManualPager(inner gmi.Pager) *manualPager {
	return &manualPager{Pager: inner, arrived: make(chan struct{}, 16)}
}

func (m *manualPager) SubmitPull(r *gmi.PageRequest) {
	m.submits.Add(1)
	m.mu.Lock()
	m.reqs = append(m.reqs, r)
	m.mu.Unlock()
	select {
	case m.arrived <- struct{}{}:
	default:
	}
}

func (m *manualPager) take() []*gmi.PageRequest {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.reqs
	m.reqs = nil
	return rs
}

// slowSegment embeds the gmi.Segment interface (not *seg.Segment), so its
// method set has no SubmitPull and the PVM drives its blocking PullIn
// through pullInPager, with a wall-clock device wait.
type slowSegment struct {
	gmi.Segment
	delay time.Duration
}

func (s *slowSegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	time.Sleep(s.delay)
	return s.Segment.PullIn(c, off, size, mode)
}

// TestAsyncSingleSubmissionManyFaulters is the submit/complete protocol's
// core guarantee: N contexts faulting the same non-resident page produce
// exactly one SubmitPull, and the one completion wakes every parked
// waiter with the published bytes.
func TestAsyncSingleSubmissionManyFaulters(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	inner := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	want := pattern(0x5A, pg)
	if err := inner.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	mp := newManualPager(inner)
	c := p.CacheCreate(mp)

	const n = 12
	ctxs := make([]gmi.Context, n)
	for i := range ctxs {
		ctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
		ctxs[i] = ctx
	}

	before := p.Stats()
	got := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ctxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			buf := make([]byte, 64)
			errs[i] = ctxs[i].Read(base, buf)
			got[i] = buf
		}(i)
	}
	close(start)

	// One faulter wins the stub race and submits; everyone else parks on
	// the stub. Give the stragglers a moment to arrive, then complete.
	select {
	case <-mp.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no SubmitPull arrived")
	}
	time.Sleep(20 * time.Millisecond)
	reqs := mp.take()
	if len(reqs) != 1 {
		t.Fatalf("got %d submissions before completion, want 1", len(reqs))
	}
	if !reqs[0].Complete(want, gmi.ProtRWX, nil) {
		t.Fatal("Complete reported the request already completed")
	}
	wg.Wait()

	for i := range ctxs {
		if errs[i] != nil {
			t.Fatalf("faulter %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[:64]) {
			t.Fatalf("faulter %d read wrong bytes: %v", i, got[i][:8])
		}
	}
	d := p.Stats().Delta(before)
	if s := mp.submits.Load(); s != 1 {
		t.Fatalf("SubmitPull called %d times, want exactly 1", s)
	}
	if d.FillSubmits != 1 || d.FillCompletes != 1 {
		t.Fatalf("FillSubmits=%d FillCompletes=%d, want 1/1", d.FillSubmits, d.FillCompletes)
	}
	// Satellite guarantee: one logical fault per faulting context, no
	// re-counting when a waiter loses the stub race and retries.
	if d.Faults != n {
		t.Fatalf("Faults=%d, want exactly %d (one per racing context)", d.Faults, n)
	}
	check(t, p)
}

// TestAsyncFailedFillWakesAllWaiters: a completion carrying an error must
// settle every stub, and every parked faulter must see the error rather
// than hang or crash.
func TestAsyncFailedFillWakesAllWaiters(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	inner := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	mp := newManualPager(inner)
	c := p.CacheCreate(mp)

	const n = 8
	errsCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
		wg.Add(1)
		go func(ctx gmi.Context) {
			defer wg.Done()
			errsCh <- ctx.Read(base, make([]byte, 8))
		}(ctx)
	}
	select {
	case <-mp.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no SubmitPull arrived")
	}
	time.Sleep(10 * time.Millisecond)
	reqs := mp.take()
	if len(reqs) != 1 {
		t.Fatalf("got %d submissions, want 1", len(reqs))
	}
	reqs[0].Complete(nil, gmi.ProtNone, gmi.ErrIO)
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !errors.Is(err, gmi.ErrIO) {
			t.Fatalf("faulter error = %v, want ErrIO", err)
		}
	}
	// The failed fill must leave the page absent, so the next access
	// resubmits and can succeed.
	want := pattern(0x77, pg)
	if err := inner.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 32)
		if err := ctx.Read(base, buf); err != nil {
			t.Errorf("retry after failed fill: %v", err)
		}
		done <- buf
	}()
	select {
	case <-mp.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no resubmission after failed fill")
	}
	reqs = mp.take()
	if len(reqs) != 1 {
		t.Fatalf("got %d resubmissions, want 1", len(reqs))
	}
	reqs[0].Complete(want, gmi.ProtRWX, nil)
	if got := <-done; !bytes.Equal(got, want[:32]) {
		t.Fatalf("retry read wrong bytes: %v", got[:8])
	}
	check(t, p)
}

// TestAsyncReadaheadInstallsWithoutFaulter: with clustering enabled, one
// fault submits a request covering its cluster plus one speculative
// request for the next cluster. The completions publish the neighbour and
// speculative pages with no thread ever faulting on them — the primary
// stub settles last, so by the time the faulter's read returns its whole
// cluster is resident, and the following cluster arrives on its own.
// Reading all eight pages therefore costs exactly two device round-trips,
// both issued by the single fault on page 0.
func TestAsyncReadaheadInstallsWithoutFaulter(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 4 })
	sg := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	want := pattern(0xC3, 8*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)

	before := p.Stats()
	got := mustRead(t, ctx, base, 64)
	if !bytes.Equal(got, want[:64]) {
		t.Fatalf("primary page wrong bytes: %v", got[:8])
	}
	d := p.Stats().Delta(before)
	if d.FillSubmits != 2 {
		t.Fatalf("FillSubmits=%d, want 2 (waited cluster + speculative next)", d.FillSubmits)
	}
	// Pages 1-3 are already resident; pages 4-7 are resident or in
	// flight, and a read that meets the in-flight stub parks on it — no
	// path below issues another pull.
	for i := 1; i < 8; i++ {
		got := mustRead(t, ctx, base+gmi.VA(i*pg), 64)
		if !bytes.Equal(got, want[i*pg:i*pg+64]) {
			t.Fatalf("readahead page %d wrong bytes: %v", i, got[:8])
		}
	}
	d = p.Stats().Delta(before)
	if d.PullIns != 2 || d.FillSubmits != 2 {
		t.Fatalf("PullIns=%d FillSubmits=%d after touching both clusters, want 2/2",
			d.PullIns, d.FillSubmits)
	}
	if got := sg.PullIns(); got != 2 {
		t.Fatalf("segment served %d pullIns, want 2", got)
	}
	check(t, p)
}

// TestFaultCountExactOnSyncPath covers the stat fix on the synchronous
// upcall path: a waiter that loses the stub race, blocks, and retries
// used to re-increment Stats.Faults on every pass through the access
// loop. N racing contexts are exactly N logical faults.
func TestFaultCountExactOnSyncPath(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	inner := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	want := pattern(0x42, pg)
	if err := inner.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	sg := &slowSegment{Segment: inner, delay: 10 * time.Millisecond}
	c := p.CacheCreate(sg)

	const n = 8
	ctxs := make([]gmi.Context, n)
	for i := range ctxs {
		ctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
		ctxs[i] = ctx
	}
	before := p.Stats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ctxs {
		wg.Add(1)
		go func(ctx gmi.Context) {
			defer wg.Done()
			<-start
			buf := make([]byte, 16)
			if err := ctx.Read(base, buf); err != nil {
				t.Errorf("Read: %v", err)
			} else if !bytes.Equal(buf, want[:16]) {
				t.Errorf("wrong bytes: %v", buf[:8])
			}
		}(ctxs[i])
	}
	close(start)
	wg.Wait()
	d := p.Stats().Delta(before)
	if d.Faults != n {
		t.Fatalf("Faults=%d, want exactly %d (stub-race retries must not re-count)", d.Faults, n)
	}
	if d.PullIns != 1 {
		t.Fatalf("PullIns=%d, want 1", d.PullIns)
	}
	check(t, p)
}

// waitRequests collects n submitted requests from mp, failing the test
// if they do not all arrive within the deadline.
func waitRequests(t *testing.T, mp *manualPager, n int) []*gmi.PageRequest {
	t.Helper()
	var reqs []*gmi.PageRequest
	deadline := time.After(5 * time.Second)
	for len(reqs) < n {
		select {
		case <-mp.arrived:
			reqs = append(reqs, mp.take()...)
		case <-deadline:
			t.Fatalf("got %d submissions, want %d", len(reqs), n)
		}
	}
	if len(reqs) != n {
		t.Fatalf("got %d submissions, want %d", len(reqs), n)
	}
	return reqs
}

// waitErr returns the outcome sent on done, failing the test on timeout.
func waitErr(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("fault did not complete")
		return nil
	}
}

// TestFastFillPublishesDstFrame pins the zero-copy fill: a fast-path
// submission hands the driver the frame its page will live in (r.Dst),
// that frame is counted in flight — and the frame accounting holds —
// while the device works, and the completion publishes that very frame.
func TestFastFillPublishesDstFrame(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	mp := newManualPager(closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock())))
	c := p.CacheCreate(mp)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)

	buf := make([]byte, pg)
	done := make(chan error, 1)
	go func() { done <- ctx.Read(base, buf) }()
	r := waitRequests(t, mp, 1)[0]
	if len(r.Dst) != 1 || len(r.Dst[0]) != pg {
		t.Fatalf("fast-path request carries %d destinations, want one %d-byte page", len(r.Dst), pg)
	}
	if n := atomic.LoadInt64(&p.inFlightFrames); n != 1 {
		t.Fatalf("inFlightFrames=%d while the fill is in flight, want 1", n)
	}
	check(t, p)

	want := pattern(0x3C, pg)
	copy(r.Dst[0], want)
	dst := &r.Dst[0][0]
	r.Complete(nil, gmi.ProtRWX, nil)
	if err := waitErr(t, done); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("read wrong bytes: %v", buf[:8])
	}
	p.mu.Lock()
	got := p.ownPage(c.(*cache), 0)
	p.mu.Unlock()
	if got == nil || &got.frame.Data[0] != dst {
		t.Fatal("the published page does not live in the frame the driver read into")
	}
	if n := atomic.LoadInt64(&p.inFlightFrames); n != 0 {
		t.Fatalf("inFlightFrames=%d after completion, want 0", n)
	}
	check(t, p)
}

// TestFillFramesReturned: a fill owns its frames from submit time, so a
// failed completion and a completion that arrives after its cache was
// destroyed must each give every one of them back — for the fast path's
// demand cluster and speculative one alike, and for the exclusive tier's
// cluster (a cache with a history object), whose request carries its
// frames as Dst too.
func TestFillFramesReturned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		history, destroy bool
		reqs             int // requests per fault: cluster (+ speculation on the fast path)
	}{
		{"failed", false, false, 2},
		{"after-destroy", false, true, 2},
		{"exclusive-failed", true, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			p, _ := newTestPVM(t, 64, func(o *Options) {
				o.ReadAheadPages = 4
				o.SmallCopyPages = -1 // every copy goes through a history object
			})
			mp := newManualPager(closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock())))
			c := p.CacheCreate(mp)
			if tc.history {
				if err := c.Copy(p.TempCacheCreate(), 0, 0, 8*pg); err != nil {
					t.Fatalf("Copy: %v", err)
				}
			}
			ctx, err := p.ContextCreate()
			if err != nil {
				t.Fatal(err)
			}
			mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)
			free := p.Memory().FreeFrames()

			done := make(chan error, 1)
			go func() { done <- ctx.Read(base, make([]byte, 8)) }()
			reqs := waitRequests(t, mp, tc.reqs)
			for _, r := range reqs {
				if len(r.Dst) != 4 {
					t.Fatalf("request carries %d destinations, want 4", len(r.Dst))
				}
			}
			inFlight := 4 * tc.reqs
			if got := p.Memory().FreeFrames(); got != free-inFlight {
				t.Fatalf("FreeFrames=%d with %d frames in flight, want %d", got, inFlight, free-inFlight)
			}
			if n := atomic.LoadInt64(&p.inFlightFrames); n != int64(inFlight) {
				t.Fatalf("inFlightFrames=%d while the fills are in flight, want %d", n, inFlight)
			}
			check(t, p)
			if tc.destroy {
				if err := c.Destroy(); err != nil {
					t.Fatalf("Destroy: %v", err)
				}
				for _, r := range reqs {
					r.Complete(nil, gmi.ProtRWX, nil)
				}
			} else {
				for _, r := range reqs {
					r.Complete(nil, gmi.ProtNone, gmi.ErrIO)
				}
			}
			if err := waitErr(t, done); err == nil {
				t.Fatal("fault succeeded on a failed or orphaned fill")
			}
			if got := p.Memory().FreeFrames(); got != free {
				t.Fatalf("FreeFrames=%d after the fills ended, want %d", got, free)
			}
			if n := atomic.LoadInt64(&p.inFlightFrames); n != 0 {
				t.Fatalf("inFlightFrames=%d after the fills ended, want 0", n)
			}
			check(t, p)
		})
	}
}

// TestFillUpReplacingInFlightStubWins: a segment that answers a page
// with an explicit FillUp while the PVM's own fill of it is in flight
// replaces the fill's stub, and its content stands — the late
// completion gives its frame back instead of overwriting the page. The
// rule is the same on the fast tier and on the exclusive tier (a cache
// with a history object).
func TestFillUpReplacingInFlightStubWins(t *testing.T) {
	for _, history := range []bool{false, true} {
		name := "fast"
		if history {
			name = "exclusive"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			p, _ := newTestPVM(t, 64, func(o *Options) { o.SmallCopyPages = -1 })
			mp := newManualPager(closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock())))
			c := p.CacheCreate(mp)
			if history {
				if err := c.Copy(p.TempCacheCreate(), 0, 0, pg); err != nil {
					t.Fatalf("Copy: %v", err)
				}
			}
			ctx, err := p.ContextCreate()
			if err != nil {
				t.Fatal(err)
			}
			mustRegion(t, ctx, base, pg, gmi.ProtRW, c, 0)
			free := p.Memory().FreeFrames()

			buf := make([]byte, 64)
			done := make(chan error, 1)
			go func() { done <- ctx.Read(base, buf) }()
			r := waitRequests(t, mp, 1)[0]
			explicit := pattern(0xE1, pg)
			if err := c.FillUp(0, explicit, gmi.ProtRWX); err != nil {
				t.Fatalf("FillUp: %v", err)
			}
			if err := waitErr(t, done); err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !bytes.Equal(buf, explicit[:64]) {
				t.Fatalf("faulter read %v, want the explicit FillUp's bytes", buf[:8])
			}
			r.Complete(pattern(0x0D, pg), gmi.ProtRWX, nil)
			if got := mustRead(t, ctx, base, 64); !bytes.Equal(got, explicit[:64]) {
				t.Fatalf("late completion overwrote the explicit fill: read %v", got[:8])
			}
			if got := p.Memory().FreeFrames(); got != free-1 {
				t.Fatalf("FreeFrames=%d, want %d (one resident page, the fill's frame returned)", got, free-1)
			}
			if n := atomic.LoadInt64(&p.inFlightFrames); n != 0 {
				t.Fatalf("inFlightFrames=%d after completion, want 0", n)
			}
			check(t, p)
		})
	}
}

// inlinePager completes every request synchronously, inside SubmitPull,
// reading into r.Dst when the request carries destinations.
type inlinePager struct {
	*seg.Segment
	withDst, withoutDst atomic.Int64
}

func (s *inlinePager) SubmitPull(r *gmi.PageRequest) {
	buf := make([]byte, r.Size)
	if err := s.Store().ReadAt(r.Off, buf); err != nil {
		r.Complete(nil, gmi.ProtNone, err)
		return
	}
	if r.Dst == nil {
		s.withoutDst.Add(1)
		r.Complete(buf, gmi.ProtRWX, nil)
		return
	}
	s.withDst.Add(1)
	for i, d := range r.Dst {
		copy(d, buf[i*pg:])
	}
	r.Complete(nil, gmi.ProtRWX, nil)
}

// TestCompleteInsideSubmitPull: a driver may complete before SubmitPull
// returns. The completion then runs on the submitting goroutine, so the
// PVM must submit holding no lock — on the fast tier and on the
// exclusive tier (a cache with history) alike — and every context
// faulting the same pages must wake to the right bytes. Every request
// carries its destination frames, whichever tier submitted it.
func TestCompleteInsideSubmitPull(t *testing.T) {
	for _, history := range []bool{false, true} {
		name := "fast"
		if history {
			name = "exclusive"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			p, _ := newTestPVM(t, 64, func(o *Options) {
				o.ReadAheadPages = 4
				o.SmallCopyPages = -1 // every copy goes through a history object
			})
			ip := &inlinePager{Segment: closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))}
			want := pattern(0x6B, 8*pg)
			if err := ip.Store().WriteAt(0, want); err != nil {
				t.Fatal(err)
			}
			c := p.CacheCreate(ip)
			if history {
				if err := c.Copy(p.TempCacheCreate(), 0, 0, 8*pg); err != nil {
					t.Fatalf("Copy: %v", err)
				}
			}
			const n = 6
			done := make(chan error, n)
			for i := 0; i < n; i++ {
				ctx, err := p.ContextCreate()
				if err != nil {
					t.Fatal(err)
				}
				mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)
				go func(ctx gmi.Context) {
					buf := make([]byte, 8*pg)
					err := ctx.Read(base, buf)
					if err == nil && !bytes.Equal(buf, want) {
						err = errors.New("read wrong bytes")
					}
					done <- err
				}(ctx)
			}
			for i := 0; i < n; i++ {
				if err := waitErr(t, done); err != nil {
					t.Fatalf("faulter: %v", err)
				}
			}
			if ip.withoutDst.Load() != 0 || ip.withDst.Load() == 0 {
				t.Fatalf("%d requests carried no destinations (%d did)", ip.withoutDst.Load(), ip.withDst.Load())
			}
			if n := atomic.LoadInt64(&p.inFlightFrames); n != 0 {
				t.Fatalf("inFlightFrames=%d after every fill completed, want 0", n)
			}
			check(t, p)
		})
	}
}

// rewrapPager re-wraps every request the way a timing decorator does:
// the driver sees a fresh request without destinations, and its
// completion is forwarded to the PVM's request with the driver's bytes.
type rewrapPager struct{ gmi.Pager }

func (w rewrapPager) SubmitPull(r *gmi.PageRequest) {
	w.Pager.SubmitPull(gmi.NewPageRequest(r.Cache, r.Off, r.Size, r.Mode,
		func(data []byte, granted gmi.Prot, err error) {
			r.Complete(data, granted, err)
		}))
}

// TestRewrappedRequestFillsByCopy: a fast-path fill whose request was
// re-wrapped without Dst completes with bytes, which the PVM copies into
// the frames it took at submit time.
func TestRewrappedRequestFillsByCopy(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 4 })
	sg := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	want := pattern(0x91, 8*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(rewrapPager{sg})
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("re-wrapped fill read wrong bytes")
	}
	if got := sg.PullIns(); got != 2 {
		t.Fatalf("segment served %d pullIns, want 2 (cluster + speculation)", got)
	}
	if n := atomic.LoadInt64(&p.inFlightFrames); n != 0 {
		t.Fatalf("inFlightFrames=%d after the fills completed, want 0", n)
	}
	check(t, p)
}

// submitProbe forwards every request to its segment unchanged, Dst
// included, after recording the PVM's eviction and the segment's
// push-out counts at the moment of submission.
type submitProbe struct {
	*seg.Segment
	p                 *PVM
	evictions, pushes atomic.Uint64
}

func (s *submitProbe) SubmitPull(r *gmi.PageRequest) {
	s.evictions.Store(s.p.Stats().Evictions)
	s.pushes.Store(s.PushOuts())
	s.Segment.SubmitPull(r)
}

// TestExclusiveFillEvictsAtSubmit: an exclusive-tier fill (a cache with
// history) with no free frame evicts for its frame at submit, on the
// faulting goroutine — here pushing a dirty page out to the very store
// that then serves the fill, whose one engine worker takes that
// writeback. The completion publishes the frame the fill brought with it
// and neither reserves nor evicts, so it cannot wait on that worker.
func TestExclusiveFillEvictsAtSubmit(t *testing.T) {
	leakcheck.Check(t)
	const frames = 8
	p, _ := newTestPVM(t, frames, func(o *Options) { o.SmallCopyPages = -1 })
	sg := &submitProbe{Segment: closeOnCleanup(t, seg.NewSegmentWith("file", store.NewMem(pg), store.Options{Workers: 1}, p.Clock())), p: p}
	want := pattern(0x2D, pg)
	if err := sg.Store().WriteAt(frames*pg, want); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 2*frames*pg, gmi.ProtRW, c, 0)
	for i := 0; i < frames; i++ {
		mustWrite(t, ctx, base+gmi.VA(i*pg), pattern(byte(i), 64))
	}
	if free := p.Memory().FreeFrames(); free != 0 {
		t.Fatalf("FreeFrames=%d after dirtying every frame, want 0", free)
	}
	if err := c.Copy(p.TempCacheCreate(), 0, 0, frames*pg); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	pushes, evictions := sg.PushOuts(), p.Stats().Evictions

	buf := make([]byte, pg)
	done := make(chan error, 1)
	go func() { done <- ctx.Read(base+gmi.VA(frames*pg), buf) }()
	if err := waitErr(t, done); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("read wrong bytes: %v", buf[:8])
	}
	if sg.pushes.Load() == pushes {
		t.Fatal("the fill evicted no dirty page of its own store before submitting")
	}
	if sg.evictions.Load() == evictions {
		t.Fatal("the fill was submitted before it evicted for its frame")
	}
	if got := p.Stats().Evictions; got != sg.evictions.Load() {
		t.Fatalf("Evictions went %d -> %d after submission: the completion evicted", sg.evictions.Load(), got)
	}
	check(t, p)
}

// fillProbe forwards every request to its segment unchanged and records,
// per request, whether it was speculative and whether it was complete
// by the time SubmitPull returned.
type fillProbe struct {
	*seg.Segment
	mu                 sync.Mutex
	spec, doneAtReturn []bool
}

func (s *fillProbe) SubmitPull(r *gmi.PageRequest) {
	s.Segment.SubmitPull(r)
	s.mu.Lock()
	s.spec = append(s.spec, r.Speculative)
	s.doneAtReturn = append(s.doneAtReturn, r.Done())
	s.mu.Unlock()
}

// TestDemandFillCompletesInline: a demand fill on a seg driver is read
// and published on the faulting goroutine — the request is complete
// before SubmitPull returns, and no engine worker reads for it.
func TestDemandFillCompletesInline(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	sg := &fillProbe{Segment: closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))}
	want := pattern(0x4E, 2*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)
	if got := mustRead(t, ctx, base, 2*pg); !bytes.Equal(got, want) {
		t.Fatal("demand fills read wrong bytes")
	}
	sg.mu.Lock()
	spec, done := sg.spec, sg.doneAtReturn
	sg.mu.Unlock()
	if len(spec) != 2 || spec[0] || spec[1] || !done[0] || !done[1] {
		t.Fatalf("requests speculative=%v complete-at-return=%v, want two demand fills complete at return", spec, done)
	}
	if n := sg.Store().Engine().StatsSnapshot().AsyncReads; n != 0 {
		t.Fatalf("AsyncReads=%d, want 0 (demand fills read inline)", n)
	}
	check(t, p)
}

// TestSpeculativeFillOnWorker: with read-ahead, the fault's own cluster
// is a demand fill served inline, and the fire-and-forget next cluster
// is marked Speculative and read by an engine worker.
func TestSpeculativeFillOnWorker(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 4 })
	sg := &fillProbe{Segment: closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))}
	want := pattern(0x5F, 8*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)
	// Reading every page parks on the speculative cluster's stubs until
	// its worker completes it.
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("clustered fills read wrong bytes")
	}
	sg.mu.Lock()
	spec, done := sg.spec, sg.doneAtReturn
	sg.mu.Unlock()
	if len(spec) != 2 || spec[0] || !spec[1] || !done[0] {
		t.Fatalf("requests speculative=%v complete-at-return=%v, want an inline demand fill, then a speculative one", spec, done)
	}
	if n := sg.Store().Engine().StatsSnapshot().AsyncReads; n != 1 {
		t.Fatalf("AsyncReads=%d, want 1 (the speculative cluster)", n)
	}
	check(t, p)
}

// TestReadAheadRidesOutTransientFaults: with read-ahead, a fault's
// cluster is one multi-page store read. Over a device where every
// operation fails twice before it succeeds, each page is retried on its
// own, so both the demand cluster and the speculative one come in.
func TestReadAheadRidesOutTransientFaults(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 4 })
	f := store.NewFaulty(store.NewMem(pg), store.FaultConfig{Seed: 1, Prob: 1, MaxConsecutive: 2})
	sg := closeOnCleanup(t, seg.NewSegmentOn("faulty", f, p.Clock()))
	want := pattern(0x6B, 8*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRW, c, 0)
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("clustered fills read wrong bytes")
	}
	check(t, p)
}

// TestCorruptPageFaultIsErrIO: a page whose bytes were damaged on disk
// behind a page file's back fails its fault with gmi.ErrIO wrapping
// store.ErrCorrupt, through the whole stack; the damage is counted once,
// the PVM stays consistent, and the other pages still fault in.
func TestCorruptPageFaultIsErrIO(t *testing.T) {
	leakcheck.Check(t)
	p, _ := newTestPVM(t, 64)
	path := filepath.Join(t.TempDir(), "data")
	f, err := store.NewFile(path, pg)
	if err != nil {
		t.Fatal(err)
	}
	sg := seg.NewSegmentOn("data", f, p.Clock())
	want := pattern(0x17, 4*pg)
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := sg.Close(); err != nil {
		t.Fatal(err)
	}
	// The four pages went out in one batch, into slots 0-3: flip a byte
	// of page 1's slot.
	raw, err := os.ReadFile(path + ".pages")
	if err != nil {
		t.Fatal(err)
	}
	raw[pg+13] ^= 0x01
	if err := os.WriteFile(path+".pages", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = store.NewFile(path, pg)
	if err != nil {
		t.Fatal(err)
	}
	sg = closeOnCleanup(t, seg.NewSegmentOn("data", f, p.Clock()))
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, c, 0)

	err = ctx.Read(base+pg, make([]byte, 64))
	if !errors.Is(err, gmi.ErrIO) || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("fault on the damaged page = %v, want gmi.ErrIO wrapping store.ErrCorrupt", err)
	}
	if n := sg.Store().Engine().StatsSnapshot().Corruptions; n != 1 {
		t.Fatalf("Corruptions=%d, want 1", n)
	}
	check(t, p)
	if got := mustRead(t, ctx, base+2*pg, pg); !bytes.Equal(got, want[2*pg:3*pg]) {
		t.Fatal("fault on an intact page read wrong bytes")
	}
	check(t, p)
}

// scriptedSegment implements PullIn only (no SubmitPull), so the PVM
// drives it through pullInPager; its PullIn answers with whatever fills
// the test scripts. Everything else goes to the embedded segment.
type scriptedSegment struct {
	gmi.Segment
	pullIn func(c gmi.Cache, off, size int64) error
}

func (s *scriptedSegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	return s.pullIn(c, off, size)
}

// TestPullInPublishesOnlyFilledPages: a PullIn that returns nil without
// filling every page of its run publishes no frame it did not fill. A
// page it filled on its own (a partial fill of the run is an explicit
// fill) is resident with its bytes; an unfilled primary fails the fault
// with gmi.ErrIO; no frame leaks and the invariants hold.
func TestPullInPublishesOnlyFilledPages(t *testing.T) {
	for _, tc := range []struct {
		name      string
		readAhead int
		fill      []int64 // pages of the run the PullIn fills
		wantErr   bool
	}{
		{"none", 1, nil, true},
		{"neighbour-only", 4, []int64{1}, true},
		{"first-of-four", 4, []int64{0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = tc.readAhead })
			want := pattern(0x2D, 4*pg)
			sg := &scriptedSegment{
				Segment: closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock())),
				pullIn: func(c gmi.Cache, off, size int64) error {
					for _, i := range tc.fill {
						o := off + i*pg
						if err := c.FillUp(o, want[o:o+pg], gmi.ProtRWX); err != nil {
							return err
						}
					}
					return nil
				},
			}
			c := p.CacheCreate(sg)
			ctx, err := p.ContextCreate()
			if err != nil {
				t.Fatal(err)
			}
			mustRegion(t, ctx, base, 4*pg, gmi.ProtRead, c, 0)
			buf := make([]byte, 8)
			err = ctx.Read(base, buf)
			if tc.wantErr && !errors.Is(err, gmi.ErrIO) {
				t.Fatalf("read with the primary unfilled: got %v, want gmi.ErrIO", err)
			}
			if !tc.wantErr && (err != nil || !bytes.Equal(buf, want[:8])) {
				t.Fatalf("read of the filled primary: err %v, bytes %v", err, buf)
			}
			info, _ := p.Describe(c)
			if len(info.Resident) != len(tc.fill) {
				t.Fatalf("%d pages resident, want only the %d filled", len(info.Resident), len(tc.fill))
			}
			for i, r := range info.Resident {
				got := make([]byte, pg)
				if err := c.ReadAt(r.Off, got); err != nil || r.Off != tc.fill[i]*pg || !bytes.Equal(got, want[r.Off:r.Off+pg]) {
					t.Fatalf("resident page %#x: err %v, want page %d with its bytes", r.Off, err, tc.fill[i])
				}
			}
			if free, total := p.Memory().FreeFrames(), p.Memory().TotalFrames(); free != total-len(tc.fill) {
				t.Fatalf("frames leaked: %d/%d free with %d resident", free, total, len(tc.fill))
			}
			check(t, p)
		})
	}
}

// TestPullInFillOutsideRunIsExplicit: a fillUp past the requested run,
// made while answering the pullIn, is an explicit fill of the real cache:
// the page is resident afterwards and reading it needs no pullIn.
func TestPullInFillOutsideRunIsExplicit(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	want := pattern(0x4E, 2*pg)
	sg := &scriptedSegment{
		Segment: closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock())),
		pullIn: func(c gmi.Cache, off, size int64) error {
			return c.FillUp(off, want[off:off+size+pg], gmi.ProtRWX)
		},
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRead, c, 0)
	if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, want[:pg]) {
		t.Fatal("faulted page content mismatch")
	}
	if info, _ := p.Describe(c); len(info.Resident) != 2 {
		t.Fatalf("%d pages resident, want the run's page and the explicit fill", len(info.Resident))
	}
	before := p.Stats()
	if got := mustRead(t, ctx, base+pg, pg); !bytes.Equal(got, want[pg:]) {
		t.Fatal("explicitly filled page content mismatch")
	}
	if d := p.Stats().Delta(before); d.PullIns != 0 || d.SoftFaults != 1 {
		t.Fatalf("reading the explicit fill: PullIns=%d SoftFaults=%d, want 0/1", d.PullIns, d.SoftFaults)
	}
	check(t, p)
}

// TestPullInSpeculationOffSubmitter: with read-ahead, the speculative
// next cluster of a PullIn-only segment is served off the faulting
// goroutine — its pullIn blocks here until the test opens the gate, yet
// the fault returns — and completes with no faulting thread.
func TestPullInSpeculationOffSubmitter(t *testing.T) {
	p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 4 })
	inner := closeOnCleanup(t, seg.NewSegment("file", pg, p.Clock()))
	want := pattern(0x6A, 8*pg)
	if err := inner.Store().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(open)
	sg := &scriptedSegment{
		Segment: inner,
		pullIn: func(c gmi.Cache, off, size int64) error {
			if off >= 4*pg {
				<-gate
			}
			return inner.PullIn(c, off, size, gmi.ProtRead)
		},
	}
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRead, c, 0)

	read := make(chan error, 1)
	go func() { read <- ctx.Read(base, make([]byte, 8)) }()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the fault waited for its speculative pullIn")
	}
	open()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().FillCompletes < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the speculative fill never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if info, _ := p.Describe(c); len(info.Resident) != 8 {
		t.Fatalf("%d pages resident, want both clusters' 8", len(info.Resident))
	}
	if st := p.Stats(); st.Faults != 1 || st.PullIns != 2 {
		t.Fatalf("Faults=%d PullIns=%d, want 1 fault and 2 pullIns", st.Faults, st.PullIns)
	}
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("clustered fills read wrong bytes")
	}
	if st := p.Stats(); st.PullIns != 2 {
		t.Fatalf("PullIns=%d after reading both clusters, want still 2", st.PullIns)
	}
	check(t, p)
}
