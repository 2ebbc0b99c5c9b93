package chorusvm_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (section 5.3), plus the ablations DESIGN.md section 5 calls out. Each
// benchmark reports two metrics:
//
//	sim-ms/op   simulated milliseconds on the paper-calibrated cost model
//	            (comparable to the paper's tables; this is the number
//	            EXPERIMENTS.md records)
//	ns/op       wall-clock time of this implementation (includes per-run
//	            setup; useful only for regression tracking)
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"chorusvm/internal/bench"
	"chorusvm/internal/core"
	"chorusvm/internal/machvm"
	"chorusvm/internal/obs"
)

var systems = []struct {
	name string
	f    bench.Factory
}{
	{"chorus", bench.PVM(core.Options{Frames: 2048, SmallCopyPages: -1})},
	{"mach", bench.Mach(machvm.Options{Frames: 2048})},
}

var cells = []struct{ region, touch int }{
	{1, 0}, {1, 1},
	{32, 0}, {32, 1}, {32, 32},
	{128, 0}, {128, 1}, {128, 32}, {128, 128},
}

func benchCells(b *testing.B, workload func(bench.Factory, int, int, int) bench.Result) {
	for _, sys := range systems {
		for _, cell := range cells {
			b.Run(fmt.Sprintf("%s/region=%dpg/touch=%dpg", sys.name, cell.region, cell.touch), func(b *testing.B) {
				res := workload(sys.f, cell.region, cell.touch, b.N)
				b.ReportMetric(res.SimMS(), "sim-ms/op")
			})
		}
	}
}

// BenchmarkTable6ZeroFill regenerates Table 6: zero-filled memory
// allocation, Chorus vs Mach.
func BenchmarkTable6ZeroFill(b *testing.B) {
	benchCells(b, bench.ZeroFill)
}

// BenchmarkTable7CopyOnWrite regenerates Table 7: deferred copy plus
// forced real copies, Chorus vs Mach.
func BenchmarkTable7CopyOnWrite(b *testing.B) {
	benchCells(b, bench.CopyOnWrite)
}

// BenchmarkFigure3HistoryTrees regenerates the Figure 3 structure churn:
// repeated copies from one source building working objects, then teardown
// (the history-tree maintenance cost itself).
func BenchmarkFigure3HistoryTrees(b *testing.B) {
	f := bench.PVM(core.Options{Frames: 2048, SmallCopyPages: -1})
	res := bench.CopyOnWrite(f, 4, 1, b.N)
	b.ReportMetric(res.SimMS(), "sim-ms/op")
}

// BenchmarkDeferredCopyCrossover measures both deferred-copy techniques
// across copy sizes — the section 4.3 rationale for having two.
func BenchmarkDeferredCopyCrossover(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			pts := bench.DeferredCopyCrossover([]int{n}, func(int) int { return 1 }, b.N)
			b.ReportMetric(float64(pts[0].HistorySim.Microseconds())/1000, "history-sim-ms/op")
			b.ReportMetric(float64(pts[0].PerPageSim.Microseconds())/1000, "perpage-sim-ms/op")
		})
	}
}

// BenchmarkExecSegmentCache measures the section 5.1.3 segment-caching
// claim: repeated exec of the same program, warm vs cold.
func BenchmarkExecSegmentCache(b *testing.B) {
	res := bench.ExecSegmentCache(32, b.N)
	b.ReportMetric(float64(res.WarmSim.Microseconds())/1000, "warm-sim-ms/op")
	b.ReportMetric(float64(res.ColdSim.Microseconds())/1000, "cold-sim-ms/op")
}

// BenchmarkIPCTransfer measures the section 5.1.6 message path: aligned
// transit-segment transfer vs bcopy.
func BenchmarkIPCTransfer(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			pts := bench.IPCTransfer([]int{size}, b.N)
			b.ReportMetric(float64(pts[0].DeferredSim.Microseconds())/1000, "aligned-sim-ms/op")
			b.ReportMetric(float64(pts[0].BcopySim.Microseconds())/1000, "bcopy-sim-ms/op")
		})
	}
}

// BenchmarkHistoryCollapse measures fork-exit chains with the section
// 4.2.5 collapse GC on and off.
func BenchmarkHistoryCollapse(b *testing.B) {
	res := bench.HistoryCollapse(8, b.N+1)
	b.ReportMetric(float64(res.OnSim.Microseconds())/float64(b.N+1)/1000, "on-sim-ms/op")
	b.ReportMetric(float64(res.OffSim.Microseconds())/float64(b.N+1)/1000, "off-sim-ms/op")
	b.ReportMetric(float64(res.OnCaches), "on-caches")
	b.ReportMetric(float64(res.OffCaches), "off-caches")
}

// BenchmarkReadAheadClustering measures pullIn clustering on a sequential
// scan (faults and disk positionings amortize across the cluster).
func BenchmarkReadAheadClustering(b *testing.B) {
	for _, cl := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cluster=%d", cl), func(b *testing.B) {
			pts := bench.ReadAhead([]int{cl}, 64, b.N)
			b.ReportMetric(float64(pts[0].Sim.Microseconds())/1000, "sim-ms/op")
			b.ReportMetric(float64(pts[0].Faults), "faults/op")
		})
	}
}

// BenchmarkMakeWorkload runs the section 5.1.3 "large make" through the
// whole stack (MIX fork/exec, files, segment manager, PVM).
func BenchmarkMakeWorkload(b *testing.B) {
	r := bench.MakeWorkload(b.N+1, 16)
	div := float64(b.N + 1)
	b.ReportMetric(float64(r.WarmSim.Microseconds())/div/1000, "warm-sim-ms/op")
	b.ReportMetric(float64(r.ColdSim.Microseconds())/div/1000, "cold-sim-ms/op")
}

// BenchmarkParallelFaultThroughput measures wall-clock faults/sec with 1,
// 2, 4 and 8 contexts demand-pulling disjoint segments concurrently. The
// workload is pull-latency bound (each pullIn models 200µs of device
// time), so the speedup comes from overlapping device waits — which the
// sharded global map and shared-mode fast path allow and the old single
// PVM lock forbade.
func BenchmarkParallelFaultThroughput(b *testing.B) {
	const pagesPerWorker = 64
	const latency = 200 * time.Microsecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last bench.ParallelResult
			for i := 0; i < b.N; i++ {
				last = bench.ParallelFaultThroughput(workers, pagesPerWorker, latency, nil)
			}
			b.ReportMetric(last.FaultsSec, "faults/sec")
		})
	}
}

// BenchmarkParallelFaultThroughputDemandZero is the allocation-bound
// variant: every worker touches a private temporary cache, so each fault
// is a pure demand-zero fill with no device wait — the frame allocator
// and the in-fault bzero are the whole cost.
func BenchmarkParallelFaultThroughputDemandZero(b *testing.B) {
	const pagesPerWorker = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last bench.ParallelResult
			for i := 0; i < b.N; i++ {
				last = bench.ParallelFaultThroughputOpts(bench.ParallelOptions{
					Workers:        workers,
					PagesPerWorker: pagesPerWorker,
					DemandZero:     true,
				})
			}
			b.ReportMetric(last.FaultsSec, "faults/sec")
		})
	}
}

// BenchmarkParallelFaultThroughputTraced is the same workload with a live
// obs.Tracer wired into the PVM and segments — the number EXPERIMENTS.md
// compares against the untraced run to bound the instrumentation
// overhead (<5% target).
func BenchmarkParallelFaultThroughputTraced(b *testing.B) {
	const pagesPerWorker = 64
	const latency = 200 * time.Microsecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tracer := obs.New(obs.Options{})
			var last bench.ParallelResult
			for i := 0; i < b.N; i++ {
				last = bench.ParallelFaultThroughput(workers, pagesPerWorker, latency, tracer)
			}
			b.ReportMetric(last.FaultsSec, "faults/sec")
		})
	}
}

// BenchmarkMMUPortability runs the zero-fill workload over each simulated
// MMU flavour: identical simulated cost, differing wall cost.
func BenchmarkMMUPortability(b *testing.B) {
	for _, name := range []string{"sun3", "pmmu", "i386"} {
		b.Run(name, func(b *testing.B) {
			f := bench.PVM(core.Options{Frames: 2048, MMU: name})
			res := bench.ZeroFill(f, 32, 32, b.N)
			b.ReportMetric(res.SimMS(), "sim-ms/op")
		})
	}
}
