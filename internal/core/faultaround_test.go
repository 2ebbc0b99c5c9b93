package core

import (
	"bytes"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// These tests pin the extent-path counters to exact values on a
// deterministic single-threaded schedule: a fresh PVM, one faulting
// goroutine. Any change to when fault-around runs or what counts as a
// soft fault shows up here as an off-by-exactly-N.

// withExtent enables the extent pipeline: clustered async pulls leave
// whole clusters resident and fault-around maps them.
func withExtent(o *Options) {
	o.ReadAheadPages = 8
	o.FaultAroundPages = 8
}

func TestFaultAroundExactCounts(t *testing.T) {
	p, _ := newTestPVM(t, 64, withExtent)
	sg := seg.NewSegment("file", pg, p.Clock())
	want := pattern(0x5A, 8*pg)
	sg.Store().WriteAt(0, want)
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	// base is cluster-aligned (0x10000 = 8 pages), so the region is one
	// whole cluster.
	r := mustRegion(t, ctx, base, 8*pg, gmi.ProtRead, c, 0)

	// One read, one hardware fault: the pull clusters 8 pages, the retry
	// maps the faulted page and fault-around maps the 7 resident
	// neighbours in one batch.
	if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, want[:pg]) {
		t.Fatal("first page content mismatch")
	}
	st := p.Stats()
	if st.Faults != 1 || st.SoftFaults != 0 {
		t.Fatalf("after one cold read: Faults=%d SoftFaults=%d, want 1/0", st.Faults, st.SoftFaults)
	}
	if st.FaultAroundMapped != 7 {
		t.Fatalf("FaultAroundMapped = %d, want 7", st.FaultAroundMapped)
	}

	// The rest of the region is already mapped: no further faults.
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("full region content mismatch")
	}
	if st = p.Stats(); st.Faults != 1 {
		t.Fatalf("Faults = %d after reading the mapped region, want still 1", st.Faults)
	}

	// Destroying the region drops the translations; the cache pages stay
	// resident. Re-map and re-read: the fault finds its page resident — a
	// soft fault — and fault-around maps the same neighbours again.
	if err := r.Destroy(); err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRead, c, 0)
	if got := mustRead(t, ctx, base+pg, pg); !bytes.Equal(got, want[pg:2*pg]) {
		t.Fatal("re-read content mismatch")
	}
	st = p.Stats()
	if st.Faults != 2 || st.SoftFaults != 1 {
		t.Fatalf("after warm re-read: Faults=%d SoftFaults=%d, want 2/1", st.Faults, st.SoftFaults)
	}
	if st.FaultAroundMapped != 14 {
		t.Fatalf("FaultAroundMapped = %d, want 14", st.FaultAroundMapped)
	}
	// The simulated clock pins every charge of the sequence above. The
	// first fault also read ahead the next cluster (offsets 8-15), which
	// an engine worker publishes on its own schedule; wait until it has,
	// so its charges are in. Describe holds p.mu exclusively, so it never
	// sees a publish half done.
	for dl := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, _ := p.Describe(c); len(info.Resident) == 16 {
			break
		}
		if time.Now().After(dl) {
			t.Fatal("the read-ahead cluster never became resident")
		}
	}
	if got := p.Clock().Elapsed(); got != 206247560*time.Nanosecond {
		t.Fatalf("simulated clock = %v, want 206.24756ms", got)
	}
	check(t, p)
}

// TestSoftFaultCounting pins the soft-fault definition without any
// extent machinery: a zero-fill is work (not soft), re-mapping an
// already-resident page is not (soft).
func TestSoftFaultCounting(t *testing.T) {
	p, _ := newTestPVM(t, 32)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	c := p.TempCacheCreate()
	r := mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)

	data := pattern(0x42, 64)
	mustWrite(t, ctx, base, data)
	st := p.Stats()
	if st.Faults != 1 || st.SoftFaults != 0 {
		t.Fatalf("after zero-fill write: Faults=%d SoftFaults=%d, want 1/0", st.Faults, st.SoftFaults)
	}

	// Drop the translations, keep the cache page, touch again: the only
	// missing piece is the mapping.
	if err := r.Destroy(); err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 2*pg, gmi.ProtRW, c, 0)
	if got := mustRead(t, ctx, base, len(data)); !bytes.Equal(got, data) {
		t.Fatal("content lost across region destroy/recreate")
	}
	st = p.Stats()
	if st.Faults != 2 || st.SoftFaults != 1 {
		t.Fatalf("after warm re-read: Faults=%d SoftFaults=%d, want 2/1", st.Faults, st.SoftFaults)
	}
	check(t, p)
}

// TestSpeculationCancelledUnderFramePressure starves the speculative
// read-ahead cluster: 12 frames, an 8-page demand cluster, so the
// fire-and-forget speculation runs out of reservations mid-install and
// must tear itself down rather than compete with demand faults for the
// last frames. The cancel path returns every reservation — the teardown
// invariant check would catch a leak.
func TestSpeculationCancelledUnderFramePressure(t *testing.T) {
	p, _ := newTestPVM(t, 12, func(o *Options) { o.ReadAheadPages = 8 })
	sg := seg.NewSegment("file", pg, p.Clock())
	want := pattern(0x77, 8*pg)
	sg.Store().WriteAt(0, want)
	c := p.CacheCreate(sg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	mustRegion(t, ctx, base, 8*pg, gmi.ProtRead, c, 0)

	if got := mustRead(t, ctx, base, pg); !bytes.Equal(got, want[:pg]) {
		t.Fatal("content mismatch under frame pressure")
	}
	st := p.Stats()
	if st.SpeculationsCancelled != 1 {
		t.Fatalf("SpeculationsCancelled = %d, want 1", st.SpeculationsCancelled)
	}
	// The demand cluster itself was served in full.
	if got := mustRead(t, ctx, base, 8*pg); !bytes.Equal(got, want) {
		t.Fatal("demand cluster content mismatch")
	}
	check(t, p)
}
