package core

import (
	"bytes"
	"testing"
	"time"

	"chorusvm/internal/cost"
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
	// read-ahead cluster ends with the region, so the first fault filled
	// offsets 0-7 only, and all of its charges are in once the read
	// returns: no fill of offsets 8-15 is in flight or still to come.
	// One seek is the setup write's, the other the fill's.
	clk := p.Clock()
	if st.PullIns != 1 || clk.Count(cost.EvDiskSeek) != 2 || clk.Count(cost.EvDiskRead) != 8 {
		t.Fatalf("PullIns=%d disk seeks=%d reads=%d, want 1/2/8",
			st.PullIns, clk.Count(cost.EvDiskSeek), clk.Count(cost.EvDiskRead))
	}
	if info, _ := p.Describe(c); len(info.Resident) != 8 {
		t.Fatalf("%d pages resident, want the region's 8", len(info.Resident))
	}
	// A speculated cluster of 8 would add 71.75 ms: one pullIn, one seek,
	// 8 page reads, 8 frame allocations and 8 bcopies.
	if got := clk.Elapsed(); got != 134497560*time.Nanosecond {
		t.Fatalf("simulated clock = %v, want 134.49756ms", got)
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
	// The region spans two clusters, so the next one is inside its
	// window and the first fault speculates it.
	mustRegion(t, ctx, base, 16*pg, gmi.ProtRead, c, 0)

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

// TestReadAheadStopsAtRegionEnd: a region narrower than the read-ahead
// cluster fills only the pages of its window, on demand and by
// speculation, though the segment holds data past it — whether the
// segment is a gmi.Pager or implements only PullIn (pullInPager).
func TestReadAheadStopsAtRegionEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*seg.Segment) gmi.Segment
	}{
		{"pager", func(sg *seg.Segment) gmi.Segment { return sg }},
		{"pullin", func(sg *seg.Segment) gmi.Segment { return &seg.FlakySegment{Segment: sg} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newTestPVM(t, 64, func(o *Options) { o.ReadAheadPages = 8 })
			sg := seg.NewSegment("file", pg, p.Clock())
			want := pattern(0x3C, 16*pg)
			sg.Store().WriteAt(0, want)
			c := p.CacheCreate(tc.wrap(sg))
			ctx, err := p.ContextCreate()
			if err != nil {
				t.Fatal(err)
			}
			mustRegion(t, ctx, base, 3*pg, gmi.ProtRead, c, 0)
			if got := mustRead(t, ctx, base, 3*pg); !bytes.Equal(got, want[:3*pg]) {
				t.Fatal("content mismatch")
			}
			if st := p.Stats(); st.PullIns != 1 || st.Faults != 3 {
				t.Fatalf("PullIns=%d Faults=%d, want 1/3", st.PullIns, st.Faults)
			}
			if n := p.Clock().Count(cost.EvDiskRead); n != 3 {
				t.Fatalf("%d pages read from disk, want 3", n)
			}
			if info, _ := p.Describe(c); len(info.Resident) != 3 {
				t.Fatalf("%d pages resident, want the region's 3", len(info.Resident))
			}
			check(t, p)
		})
	}
}
