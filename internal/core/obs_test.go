package core

import (
	"reflect"
	"sync"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
)

// TestStatsDelta checks Delta field-by-field, using reflection so a new
// Stats counter that is forgotten in Delta fails the test instead of
// silently reporting zero.
func TestStatsDelta(t *testing.T) {
	var prev, cur Stats
	pv := reflect.ValueOf(&prev).Elem()
	cv := reflect.ValueOf(&cur).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetUint(uint64(100 + i))
		cv.Field(i).SetUint(uint64(100 + 7*i))
	}
	d := cur.Delta(prev)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		want := uint64(6 * i)
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Delta.%s = %d, want %d (field missing from Delta?)",
				dv.Type().Field(i).Name, got, want)
		}
	}

	// Counters the frame allocator mirrors into Stats must stay present by
	// name — the generic loop above would not notice one being deleted.
	for _, name := range []string{
		"MagazineRefills", "BatchFrees",
	} {
		if _, ok := dv.Type().FieldByName(name); !ok {
			t.Errorf("Stats.%s dropped — frame-allocator counter no longer reported", name)
		}
	}

	// Same for the counters mirrored from the replacement policy.
	for _, name := range []string{
		"PolicyHarvests", "PolicySecondChances", "PolicyPromotions",
	} {
		if _, ok := dv.Type().FieldByName(name); !ok {
			t.Errorf("Stats.%s dropped — policy counter no longer reported", name)
		}
	}

	// And once end-to-end against a live PVM.
	p, _ := newTestPVM(t, 64)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, c, 0)
	before := p.Stats()
	mustWrite(t, ctx, base, pattern(0x5A, 2*pg))
	delta := p.Stats().Delta(before)
	if delta.ZeroFills != 2 {
		t.Fatalf("delta.ZeroFills = %d, want 2", delta.ZeroFills)
	}
	if delta.Faults == 0 {
		t.Fatal("delta.Faults = 0 after two demand-zero writes")
	}
}

// TestHandleFaultDisabledTracerAllocs pins the fault path's zero-cost
// claim for the disabled tracer (obs package design rule #1): refaulting
// a resident, already-mapped page must not allocate — neither with no
// tracer at all nor with a constructed-but-disabled one. The refault
// crosses the KindPolicyWait probe in noteReference, so this also pins
// that probe at one branch and no allocations. The disabled-2q leg
// refaults a page 2Q has promoted into its main queue, not one still in
// the admission queue.
func TestHandleFaultDisabledTracerAllocs(t *testing.T) {
	run := func(t *testing.T, tracer *obs.Tracer, promote bool) {
		p, _ := newTestPVM(t, 64, func(o *Options) { o.Tracer = tracer })
		gctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		ctx := gctx.(*context)
		c := p.TempCacheCreate()
		mustRegion(t, gctx, base, 4*pg, gmi.ProtRW, c, 0)
		// Materialize and map the page, then refault it.
		mustWrite(t, gctx, base, pattern(1, 64))
		if err := p.HandleFault(ctx, base, gmi.ProtWrite); err != nil {
			t.Fatal(err)
		}
		if promote {
			// The refault referenced page 0; page 1 is never re-referenced.
			// One victim scan promotes page 0 out of the admission queue
			// and evicts page 1 from it.
			mustWrite(t, gctx, base+pg, pattern(2, 64))
			if n := p.PageOut(1); n != 1 {
				t.Fatalf("PageOut(1) = %d, want 1", n)
			}
			if s := p.Stats(); s.PolicyPromotions != 1 {
				t.Fatalf("PolicyPromotions = %d, want 1", s.PolicyPromotions)
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := p.HandleFault(ctx, base, gmi.ProtWrite); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resident refault allocates %.1f/op, want 0", n)
		}
	}
	t.Run("nil", func(t *testing.T) { run(t, nil, false) })
	t.Run("disabled", func(t *testing.T) {
		tr := obs.New(obs.Options{})
		tr.SetEnabled(false)
		run(t, tr, false)
	})
	t.Run("disabled-2q", func(t *testing.T) {
		tr := obs.New(obs.Options{})
		tr.SetEnabled(false)
		run(t, tr, true)
	})
}

// TestTracedFaultPath cross-checks the tracer against the PVM's own
// counters: every fault the PVM counts must observe into the OpFault
// histogram and emit a KindFault event whose stage times sum to its
// duration.
func TestTracedFaultPath(t *testing.T) {
	tracer := obs.New(obs.Options{})
	p, _ := newTestPVM(t, 64, func(o *Options) { o.Tracer = tracer })
	if p.Tracer() != tracer {
		t.Fatal("Tracer() accessor does not return the wired tracer")
	}
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	src := p.TempCacheCreate()
	mustRegion(t, ctx, base, 4*pg, gmi.ProtRW, src, 0)
	mustWrite(t, ctx, base, pattern(0x11, 2*pg))

	// A deferred copy plus a write through it exercises the COW probes.
	cpy := p.TempCacheCreate()
	if err := src.Copy(cpy, 0, 0, 4*pg); err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base+0x100000, 4*pg, gmi.ProtRW, cpy, 0)
	mustWrite(t, ctx, base+0x100000, pattern(0x22, 64))

	st := p.Stats()
	snap := tracer.Snapshot()
	if snap.Ops[obs.OpFault].Count != st.Faults {
		t.Fatalf("OpFault count %d != Stats.Faults %d",
			snap.Ops[obs.OpFault].Count, st.Faults)
	}
	var faults, zerofills, cowish uint64
	for _, e := range tracer.Events() {
		switch e.Kind {
		case obs.KindFault:
			faults++
			var sum int64
			for _, s := range e.Stages {
				sum += s
			}
			if sum != e.Dur {
				t.Fatalf("fault stages sum %d != dur %d: %+v", sum, e.Dur, e)
			}
		case obs.KindZeroFill:
			zerofills++
		case obs.KindCowBreak, obs.KindStubBreak:
			cowish++
		}
	}
	if faults != st.Faults {
		t.Fatalf("ring has %d fault events, stats count %d", faults, st.Faults)
	}
	if zerofills != st.ZeroFills {
		t.Fatalf("ring has %d zerofill events, stats count %d", zerofills, st.ZeroFills)
	}
	if want := st.CowBreaks + st.StubBreaks; cowish != want {
		t.Fatalf("ring has %d cow/stub events, stats count %d", cowish, want)
	}
}

// TestTracerRaceFaultsVsReaders races tracer-enabled fault workers
// against goroutines draining the ring and histograms — the
// whole-stack companion to obs.TestConcurrentWritersAndReaders. Run
// under -race in CI.
func TestTracerRaceFaultsVsReaders(t *testing.T) {
	tracer := obs.New(obs.Options{BufferEvents: 1 << 12})
	p, _ := newTestPVM(t, 256, func(o *Options) { o.Tracer = tracer })
	const workers = 4
	var workerWG, readerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		ctx, err := p.ContextCreate()
		if err != nil {
			t.Fatal(err)
		}
		c := p.TempCacheCreate()
		r := mustRegion(t, ctx, base, 32*pg, gmi.ProtRW, c, 0)
		workerWG.Add(1)
		go func(ctx gmi.Context) {
			defer workerWG.Done()
			buf := pattern(0x33, 128)
			for round := 0; round < 8; round++ {
				for off := int64(0); off < 32*pg; off += pg {
					if err := ctx.Write(base+gmi.VA(off), buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}
		}(ctx)
		_ = r
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range tracer.Events() {
					if e.Dur < 0 {
						t.Errorf("negative duration decoded: %+v", e)
						return
					}
				}
				_ = tracer.Snapshot()
			}
		}()
	}
	workerWG.Wait()
	close(stop)
	readerWG.Wait()
	check(t, p)
	if tracer.Snapshot().Ops[obs.OpFault].Count == 0 {
		t.Fatal("no faults traced")
	}
}
