package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// This file measures parallel fault throughput: how many page faults per
// second the PVM resolves when several contexts fault on disjoint
// segments concurrently. Under the original single PVM lock the fault
// path serialized completely, so the pullIn device latency of one fault
// blocked every other context; with the sharded global map and the
// shared-mode fast path, faults on independent pages overlap their
// device waits. The workload models the kernel-relevant case — faults
// whose cost is dominated by mapper (disk) latency — so the measured
// speedup is latency overlap, which does not require multiple CPUs.

// latencySegment wraps a segment with a fixed wall-clock device latency
// per pullIn, modelling the disk a real mapper would sit on.
type latencySegment struct {
	*seg.Segment
	latency time.Duration
}

func (l *latencySegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	time.Sleep(l.latency)
	return l.Segment.PullIn(c, off, size, mode)
}

// SubmitPull must be overridden alongside PullIn: the promoted method from
// the embedded *seg.Segment would skip the simulated device latency
// entirely. The sleep happens on a private goroutine, so a demand fill and
// its speculation overlap their latencies; then the driver gets the request.
func (l *latencySegment) SubmitPull(r *gmi.PageRequest) {
	go func() {
		time.Sleep(l.latency)
		l.Segment.SubmitPull(r)
	}()
}

// syncOnly exposes nothing of a segment but gmi.Segment. Hiding
// SubmitPull opts the segment out of the gmi.Pager protocol, so the PVM
// drives every fill through the blocking PullIn upcall.
type syncOnly struct{ gmi.Segment }

// ParallelResult is one row of the parallel fault-throughput table.
type ParallelResult struct {
	Workers   int
	Faults    int
	Elapsed   time.Duration
	FaultsSec float64
	// Stats is the PVM counter activity of this run (a Stats.Delta over
	// the measured interval; the run starts from a fresh PVM, so it is
	// the whole run's activity).
	Stats core.Stats
	// Store aggregates the store-engine counters of every worker segment:
	// reads and writeback batches issued against the selected backend,
	// and — under fault injection — retries.
	Store store.Stats
}

// ParallelOptions configures a parallel fault-throughput run. The zero
// value of Store selects the in-memory backend with no fault injection,
// which is the classic benchmark.
type ParallelOptions struct {
	Workers        int
	PagesPerWorker int
	// PullLatency is the simulated per-pullIn device wait.
	PullLatency time.Duration
	// Tracer may be nil (the uninstrumented baseline); when non-nil it is
	// wired into the PVM and every worker segment.
	Tracer *obs.Tracer
	// Store selects the backend behind every worker segment (and the swap
	// allocator, though the frame budget is sized so eviction never runs).
	Store store.Config
	// Preload, when true, writes a pattern into every page of each
	// worker's segment and syncs it to the backend before the measured
	// interval, so pullIns read real backend content — actual disk reads
	// for "file", decompression for "flate" — instead of zero-fill.
	Preload bool
	// DemandZero switches the workload from segment pull-ins to pure
	// demand-zero faults: every worker touches the pages of a private
	// temporary cache, so each fault materializes a zeroed frame with no
	// device wait. This is the allocation-bound (malloc/first-touch)
	// workload where the frame allocator itself — not mapper latency — is
	// the bottleneck. Store, Preload and PullLatency are ignored.
	DemandZero bool
	// SyncPager hides each worker segment's SubmitPull (syncOnly), so
	// every fill takes the synchronous PullIn upcall — the
	// pre-submit/complete baseline, kept for the protocol ablation.
	SyncPager bool
	// ReadAhead clusters each fill over up to this many contiguous pages
	// (0 or 1 disables clustering).
	ReadAhead int
	// FaultAround maps up to this many resident neighbours per fault
	// (power of two up to 8; 0/1 disables — the classic behaviour).
	FaultAround int
	// Policy selects the page-replacement policy ("" = the PVM default).
	// Frames are sized so the benchmark never evicts, so this only
	// exercises the policy's bookkeeping overhead on the fault path.
	Policy string
	// WarmResident pre-touches every page before the measured interval,
	// then destroys and recreates the regions: the translations drop but
	// the pages stay resident in their caches, so every measured fault is
	// a soft fault (mapping-only). This is the workload where fault-around
	// pays — the device-bound default measures latency overlap instead,
	// and batching the map step cannot move it.
	WarmResident bool
	// Passes repeats the warm-resident measured sweep this many times
	// (default 1), dropping and recreating the regions between passes
	// outside the timed interval. A single sweep lasts milliseconds —
	// short enough for scheduler noise to swamp it; accumulating several
	// sweeps measures the same all-soft-fault workload over a longer
	// interval. Ignored unless WarmResident is set.
	Passes int
}

// ParallelFaultThroughput runs `workers` goroutines, each with a private
// context and a private cache backed by its own in-memory segment with
// pullLatency of simulated device time, and measures wall-clock faults
// per second while every worker demand-pulls pagesPerWorker pages. It is
// the classic form of ParallelFaultThroughputOpts.
func ParallelFaultThroughput(workers, pagesPerWorker int, pullLatency time.Duration, tracer *obs.Tracer) ParallelResult {
	return ParallelFaultThroughputOpts(ParallelOptions{
		Workers:        workers,
		PagesPerWorker: pagesPerWorker,
		PullLatency:    pullLatency,
		Tracer:         tracer,
	})
}

// ParallelFaultThroughputOpts is the configurable benchmark: every
// worker's segment sits on a backend built from o.Store, so the same
// fault workload can be measured against the in-memory, file-backed and
// compressing stores, with or without injected transient faults. Frames
// are sized so no eviction occurs; the measurement isolates the fault
// path itself.
func ParallelFaultThroughputOpts(o ParallelOptions) ParallelResult {
	clock := cost.New()
	const pageSize = 8192
	swap := seg.NewSwapAllocatorOn(pageSize, clock, o.Store.Factory(pageSize))
	p := core.New(core.Options{
		Frames:           o.Workers*o.PagesPerWorker + 64,
		PageSize:         pageSize,
		Clock:            clock,
		SegAlloc:         swap,
		Tracer:           o.Tracer,
		ReadAheadPages:   o.ReadAhead,
		FaultAroundPages: o.FaultAround,
		Policy:           o.Policy,
	})

	type worker struct {
		ctx   gmi.Context
		base  gmi.VA
		cache gmi.Cache
		reg   gmi.Region
	}
	ws := make([]worker, o.Workers)
	var segs []*seg.Segment
	if !o.DemandZero {
		segs = make([]*seg.Segment, o.Workers)
	}
	size := int64(o.PagesPerWorker) * pageSize
	for i := range ws {
		ctx, err := p.ContextCreate()
		if err != nil {
			panic(err)
		}
		var c gmi.Cache
		if o.DemandZero {
			// Allocation-bound workload: a private temporary cache per
			// worker; every fault is a demand-zero fill, no mapper at all.
			c = p.TempCacheCreate()
		} else {
			b, err := o.Store.New(fmt.Sprintf("par-%d", i), pageSize)
			if err != nil {
				panic(err)
			}
			s := &latencySegment{
				Segment: seg.NewSegmentOn(fmt.Sprintf("par-%d", i), b, clock),
				latency: o.PullLatency,
			}
			s.SetTracer(o.Tracer)
			segs[i] = s.Segment
			if o.Preload {
				st := s.Store()
				buf := make([]byte, pageSize)
				for pg := 0; pg < o.PagesPerWorker; pg++ {
					for j := range buf {
						buf[j] = byte(i+1) ^ byte(pg*7) ^ byte(j)
					}
					if err := st.WriteAt(int64(pg)*pageSize, buf); err != nil {
						panic(err)
					}
				}
				if err := st.Sync(); err != nil {
					panic(err)
				}
			}
			var cs gmi.Segment = s
			if o.SyncPager {
				cs = syncOnly{s}
			}
			c = p.CacheCreate(cs)
		}
		base := benchBase + gmi.VA(int64(i)*size*2)
		reg, err := ctx.RegionCreate(base, size, gmi.ProtRW, c, 0)
		if err != nil {
			panic(err)
		}
		ws[i] = worker{ctx: ctx, base: base, cache: c, reg: reg}
	}

	if o.WarmResident {
		// Warm phase: touch every page (concurrently, to overlap device
		// waits), then drop and recreate the regions. Region destroy
		// invalidates the translations but leaves the cache pages
		// resident, so the measured interval below resolves soft faults
		// only — the page is there, the mapping is not. The tracer is
		// silenced for the warm-up: its latency histograms must describe
		// the measured interval, not the device-bound filling.
		o.Tracer.SetEnabled(false)
		var warm sync.WaitGroup
		for i := range ws {
			warm.Add(1)
			go func(w worker) {
				defer warm.Done()
				buf := []byte{0}
				for pg := 0; pg < o.PagesPerWorker; pg++ {
					if err := w.ctx.Read(w.base+gmi.VA(int64(pg)*pageSize), buf); err != nil {
						panic(err)
					}
				}
			}(ws[i])
		}
		warm.Wait()
		for i := range ws {
			if err := ws[i].reg.Destroy(); err != nil {
				panic(err)
			}
			reg, err := ws[i].ctx.RegionCreate(ws[i].base, size, gmi.ProtRW, ws[i].cache, 0)
			if err != nil {
				panic(err)
			}
			ws[i].reg = reg
		}
		o.Tracer.SetEnabled(true)
	}

	passes := 1
	if o.WarmResident && o.Passes > 1 {
		passes = o.Passes
	}
	before := p.Stats()
	storeBefore := aggregateStoreStats(segs)
	var elapsed time.Duration
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			// Untimed: shed the translations so the next sweep is again
			// pure soft faults, without charging the teardown to either
			// side of the comparison.
			for i := range ws {
				if err := ws[i].reg.Destroy(); err != nil {
					panic(err)
				}
				reg, err := ws[i].ctx.RegionCreate(ws[i].base, size, gmi.ProtRW, ws[i].cache, 0)
				if err != nil {
					panic(err)
				}
				ws[i].reg = reg
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range ws {
			wg.Add(1)
			go func(w worker) {
				defer wg.Done()
				<-start
				buf := []byte{0}
				for pg := 0; pg < o.PagesPerWorker; pg++ {
					if err := w.ctx.Read(w.base+gmi.VA(int64(pg)*pageSize), buf); err != nil {
						panic(err)
					}
				}
			}(ws[i])
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		elapsed += time.Since(t0)
	}

	storeStats := aggregateStoreStats(segs)
	for i := range segs {
		if err := segs[i].Close(); err != nil {
			panic(err)
		}
	}
	mustClose(swap)
	faults := o.Workers * o.PagesPerWorker * passes
	return ParallelResult{
		Workers:   o.Workers,
		Faults:    faults,
		Elapsed:   elapsed,
		FaultsSec: float64(faults) / elapsed.Seconds(),
		Stats:     p.Stats().Delta(before),
		// Measured interval only: the preload writes (and their batches)
		// happened before t0.
		Store: storeStats.Delta(storeBefore),
	}
}

func aggregateStoreStats(segs []*seg.Segment) store.Stats {
	var st store.Stats
	for _, s := range segs {
		st.Add(s.Store().Engine().StatsSnapshot())
	}
	return st
}

// FormatParallel renders the throughput table with speedups relative to
// the first (single-worker) row.
func FormatParallel(rs []ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel fault throughput (disjoint segments, pull-latency bound)\n")
	fmt.Fprintf(&b, "%8s %10s %12s %14s %9s\n", "workers", "faults", "elapsed", "faults/sec", "speedup")
	for _, r := range rs {
		speedup := 1.0
		if len(rs) > 0 && rs[0].FaultsSec > 0 {
			speedup = r.FaultsSec / rs[0].FaultsSec
		}
		fmt.Fprintf(&b, "%8d %10d %12s %14.0f %8.2fx\n",
			r.Workers, r.Faults, r.Elapsed.Round(time.Millisecond), r.FaultsSec, speedup)
	}
	return b.String()
}

// FormatParallelStore renders the aggregated store-engine counters of
// each run: reads, writeback batching, and — under fault injection —
// retries.
func FormatParallelStore(rs []ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-run store-engine counters (all worker segments aggregated)\n")
	fmt.Fprintf(&b, "%8s %8s %8s %9s %8s %8s\n",
		"workers", "reads", "batches", "coalesced", "retries", "corrupt")
	for _, r := range rs {
		fmt.Fprintf(&b, "%8d %8d %8d %9d %8d %8d\n",
			r.Workers, r.Store.Reads, r.Store.Batches, r.Store.Coalesced,
			r.Store.Retries, r.Store.Corruptions)
	}
	return b.String()
}

// FormatParallelStats renders the PVM counter activity of each run — the
// Stats.Delta column view printed next to the latency breakdown.
func FormatParallelStats(rs []ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-run PVM counters (Stats delta over the measured interval)\n")
	fmt.Fprintf(&b, "%8s %8s %9s %9s %8s %9s %8s %9s\n",
		"workers", "faults", "softflts", "zerofills", "pullins", "evictions", "faround", "2ndchance")
	for _, r := range rs {
		fmt.Fprintf(&b, "%8d %8d %9d %9d %8d %9d %8d %9d\n",
			r.Workers, r.Stats.Faults, r.Stats.SoftFaults, r.Stats.ZeroFills,
			r.Stats.PullIns, r.Stats.Evictions, r.Stats.FaultAroundMapped,
			r.Stats.PolicySecondChances)
	}
	return b.String()
}

// FaultAroundPoint is one fault-around ablation row: the warm-resident
// sequential workload measured at one fault-around width.
type FaultAroundPoint struct {
	// Width is the fault-around cluster width (0 = off).
	Width  int
	Result ParallelResult
	// P99 is the 99th-percentile wall-clock fault latency of the measured
	// interval (from the run's private tracer).
	P99 time.Duration
}

// FaultAroundAblation measures the warm-resident sequential workload —
// every page already resident, every fault a mapping-only soft fault — at
// each fault-around width. This is the workload the fault-around
// batching targets; the
// device-bound pull benchmark cannot show it, because there the map step
// is noise under the simulated disk wait.
func FaultAroundAblation(widths []int, workers, pagesPerWorker int, st store.Config) []FaultAroundPoint {
	pts := make([]FaultAroundPoint, 0, len(widths))
	for _, width := range widths {
		tr := obs.New(obs.Options{})
		r := ParallelFaultThroughputOpts(ParallelOptions{
			Workers:        workers,
			PagesPerWorker: pagesPerWorker,
			PullLatency:    50 * time.Microsecond,
			Tracer:         tr,
			Store:          st,
			ReadAhead:      8,
			WarmResident:   true,
			Passes:         8,
			FaultAround:    width,
		})
		pts = append(pts, FaultAroundPoint{
			Width:  width,
			Result: r,
			P99:    tr.Snapshot().Ops[obs.OpFault].Quantile(0.99),
		})
	}
	return pts
}

// FormatFaultAround renders the fault-around ablation table. "pages/s" is
// pages resolved per second (the workload touches every page; fault-around
// resolves several per hardware fault), speedup is relative to the first
// row.
func FormatFaultAround(pts []FaultAroundPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm-resident sequential faults: fault-around ablation\n")
	fmt.Fprintf(&b, "%7s %12s %9s %9s %8s %10s %8s\n",
		"around", "pages/s", "hwfaults", "softflts", "faround", "p99 fault", "speedup")
	for _, pt := range pts {
		speedup := 1.0
		if len(pts) > 0 && pts[0].Result.FaultsSec > 0 {
			speedup = pt.Result.FaultsSec / pts[0].Result.FaultsSec
		}
		fmt.Fprintf(&b, "%7d %12.0f %9d %9d %8d %10s %7.2fx\n",
			pt.Width, pt.Result.FaultsSec, pt.Result.Stats.Faults,
			pt.Result.Stats.SoftFaults, pt.Result.Stats.FaultAroundMapped,
			pt.P99.Round(100*time.Nanosecond), speedup)
	}
	return b.String()
}
