// Command chorusbench regenerates the paper's evaluation (section 5.3):
// Table 6 (zero-filled memory allocation) and Table 7 (copy-on-write),
// each for the Chorus PVM and the Mach shadow-object baseline, the derived
// overheads of section 5.3.2, and this repository's ablation benchmarks.
//
// Times are simulated milliseconds on the paper's calibrated cost model
// (Sun-3/60 class hardware); see internal/cost/calibration.go for the
// derivation of every constant and EXPERIMENTS.md for paper-vs-measured.
//
// Usage:
//
//	chorusbench                 # both tables + derived overheads
//	chorusbench -table 6        # one table
//	chorusbench -ablations     # crossover / exec-cache / IPC / collapse / MMU
//	chorusbench -iters 64      # more averaging
//	chorusbench -parallel -hist          # + fault-stage latency breakdown
//	chorusbench -parallel -trace=out.json -trace-format=chrome
//	chorusbench -parallel -store file -store-dir /tmp/pages
//	                           # measure against real page files on disk
//	chorusbench -parallel -sync-pager
//	                           # synchronous pullIn baseline (protocol ablation)
//	chorusbench -parallel -store flate -store-faults 0.05
//	                           # compressing store under injected faults
//	chorusbench -framepool     # demand-zero faults at 1/2/4/8 workers,
//	                           # pre-zeroed frame pool off vs on
//	chorusbench -parallel -fault-around 8
//	                           # warm-resident soft faults, mapping 8-page
//	                           # clusters per fault (0 = same workload, off)
//	chorusbench -fault-around-ablation -bench-json BENCH_fault.json
//	                           # widths 0/4/8 + machine-readable results
//	chorusbench -pressure      # replacement-policy ablation: lru/clock/2q
//	                           # under Zipf + scan at 0.5x/1x/2x of memory
//	chorusbench -pressure -pressure-json BENCH_pressure.json
//	chorusbench -parallel -policy clock
//	                           # policy bookkeeping overhead on the fault path
//	chorusbench -parallel -store tiered -tier-hot 64 -tier-warm 256
//	                           # hot/warm/cold tiered backing store
//	chorusbench -parallel -store remote -store-addr tcp
//	                           # the tiered store behind a wire
//	chorusbench -tier-ablation -tier-json BENCH_tier.json
//	                           # policy-driven vs static placement vs flat
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chorusvm/internal/bench"
	"chorusvm/internal/core"
	"chorusvm/internal/machvm"
	"chorusvm/internal/obs"
	"chorusvm/internal/policy"
	"chorusvm/internal/store"
)

func main() {
	table := flag.Int("table", 0, "regenerate only table 6 or 7 (0 = both)")
	derive := flag.Bool("derive", true, "print the section 5.3.2 derived overheads")
	ablations := flag.Bool("ablations", false, "run the ablation benchmarks")
	parallel := flag.Bool("parallel", false, "run the parallel fault-throughput benchmark")
	framepool := flag.Bool("framepool", false, "run the demand-zero frame-pool ablation (pre-zeroed pool off vs on at 1/2/4/8 workers)")
	iters := flag.Int("iters", 32, "iterations per cell")
	frames := flag.Int("frames", 2048, "physical frames per memory manager")
	hist := flag.Bool("hist", false, "print latency histograms and the fault-stage breakdown (wall-clock; implies tracing the -parallel runs)")
	traceFile := flag.String("trace", "", "write the captured event trace to this file")
	traceFormat := flag.String("trace-format", obs.FormatChrome, "trace encoding: text, jsonl or chrome (chrome://tracing / Perfetto)")
	storeKind := flag.String("store", "mem", "backing store for the -parallel worker segments: "+strings.Join(store.Kinds(), ", "))
	storeDir := flag.String("store-dir", "", "directory for -store file page files (required with -store file; optional journaled cold tier with -store tiered)")
	storeFaults := flag.Float64("store-faults", 0, "per-op probability of injected transient store faults (0 disables)")
	tierHot := flag.Int("tier-hot", 0, "hot-tier capacity in pages for -store tiered/remote (0 = default)")
	tierWarm := flag.Int("tier-warm", 0, "warm-tier capacity in pages for -store tiered/remote (0 = default)")
	storeAddr := flag.String("store-addr", "", "transport for -store remote: pipe (in-process, default) or tcp (loopback)")
	syncPager := flag.Bool("sync-pager", false, "force the synchronous pullIn upcall path in -parallel (protocol ablation baseline)")
	readAhead := flag.Int("readahead", 1, "cluster -parallel fills over up to this many contiguous pages")
	pages := flag.Int("pages", 64, "pages each -parallel worker faults (larger runs average out timer noise)")
	faultAround := flag.Int("fault-around", -1, "map up to this many resident neighbours per fault (power of two <= 8; 0 disables; setting >= 0 switches -parallel to the warm-resident soft-fault workload)")
	faAblation := flag.Bool("fault-around-ablation", false, "run the warm-resident fault-around ablation at widths 0/4/8")
	faWorkers := flag.Int("fault-around-workers", 2, "concurrent workers in the fault-around ablation (the soft-fault workload is CPU-bound, so match the machine, not the device)")
	promote := flag.Bool("promote", true, "promote contiguous fault-around clusters to large MMU translations (with -fault-around >= 2)")
	benchJSON := flag.String("bench-json", "", "write the fault-around ablation results as machine-readable JSON to this file")
	policyName := flag.String("policy", "", "page-replacement policy for the -parallel runs: lru, clock or 2q (empty = PVM default)")
	pressure := flag.Bool("pressure", false, "run the replacement-policy pressure ablation (lru/clock/2q under Zipf + scan bursts at 0.5x/1x/2x of physical memory)")
	pressureJSON := flag.String("pressure-json", "", "write the -pressure results as machine-readable JSON to this file")
	tierAblation := flag.Bool("tier-ablation", false, "run the tiered-store ablation (policy-driven vs static placement vs flat, at two capacity settings)")
	tierJSON := flag.String("tier-json", "", "write the -tier-ablation results as machine-readable JSON to this file")
	flag.Parse()

	// Validate the flag combination before any work: a bad combination is
	// a usage error, not a mid-run failure.
	storeCfg := store.Config{
		Kind: *storeKind, Dir: *storeDir, FaultProb: *storeFaults, Seed: 1,
		TierHot: *tierHot, TierWarm: *tierWarm, Addr: *storeAddr,
	}
	if err := storeCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "chorusbench: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *readAhead < 1 {
		fmt.Fprintf(os.Stderr, "chorusbench: -readahead %d out of range (want >= 1)\n\n", *readAhead)
		flag.Usage()
		os.Exit(2)
	}
	if *pages < 1 {
		fmt.Fprintf(os.Stderr, "chorusbench: -pages %d out of range (want >= 1)\n\n", *pages)
		flag.Usage()
		os.Exit(2)
	}
	if *faultAround > 8 || (*faultAround > 1 && *faultAround&(*faultAround-1) != 0) {
		fmt.Fprintf(os.Stderr, "chorusbench: -fault-around %d invalid (want a power of two <= 8, or 0 to disable)\n\n", *faultAround)
		flag.Usage()
		os.Exit(2)
	}
	if *policyName != "" {
		if _, err := policy.New(*policyName); err != nil {
			fmt.Fprintf(os.Stderr, "chorusbench: -policy %q invalid (want one of %s)\n\n",
				*policyName, strings.Join(policy.Names(), ", "))
			flag.Usage()
			os.Exit(2)
		}
	}

	chorus := bench.PVM(core.Options{Frames: *frames, SmallCopyPages: -1})
	mach := bench.Mach(machvm.Options{Frames: *frames})

	var t6c, t7c *bench.Matrix
	if *table == 0 || *table == 6 {
		fmt.Println("=== Table 6: zero-filled memory allocation ===")
		t6c = bench.Run("Chorus (PVM, history objects)", chorus, bench.ZeroFill, *iters)
		fmt.Println(t6c.Format(8))
		t6m := bench.Run("Mach (shadow objects)", mach, bench.ZeroFill, *iters)
		fmt.Println(t6m.Format(8))
	}
	if *table == 0 || *table == 7 {
		fmt.Println("=== Table 7: copy-on-write ===")
		t7c = bench.Run("Chorus (PVM, history objects)", chorus, bench.CopyOnWrite, *iters)
		fmt.Println(t7c.Format(8))
		t7m := bench.Run("Mach (shadow objects)", mach, bench.CopyOnWrite, *iters)
		fmt.Println(t7m.Format(8))
	}
	if *derive && t6c != nil && t7c != nil {
		fmt.Println("=== Section 5.3.2: derived overheads ===")
		fmt.Println(bench.Derive(t6c, t7c).Format())
	}

	if *ablations {
		fmt.Println("=== Ablations (DESIGN.md section 5) ===")
		pts := bench.DeferredCopyCrossover([]int{1, 2, 4, 8, 16, 32, 64}, func(int) int { return 1 }, *iters)
		fmt.Println(bench.FormatCrossover(pts))
		fmt.Println(bench.ExecSegmentCache(32, *iters).Format())
		fmt.Println(bench.HistoryCollapse(8, 32).Format())
		ipcs := bench.IPCTransfer([]int{4 << 10, 16 << 10, 64 << 10}, *iters)
		fmt.Println(bench.FormatIPC(ipcs))
		fmt.Println(bench.FormatReadAhead(bench.ReadAhead([]int{1, 2, 4, 8, 16}, 64, *iters)))
		fmt.Println(bench.DSM(*iters).Format())
		fmt.Println(bench.MakeWorkload(8, 16).Format())
		fmt.Println(bench.CopyPolicy(32, *iters).Format())
		fmt.Println(bench.FormatMMU(bench.MMUPortability(32, 32, *iters)))
	}

	if *framepool {
		fmt.Println("=== Demand-zero fault throughput: frame-pool ablation ===")
		fmt.Println(bench.FormatFramePool(bench.FramePoolAblation([]int{1, 2, 4, 8}, 256)))
	}

	if *pressure {
		fmt.Println("=== Replacement-policy pressure ablation ===")
		pts := bench.PressureAblation(policy.Names(), []float64{0.5, 1, 2}, bench.DefaultPressureConfig)
		fmt.Println(bench.FormatPressure(pts))
		if *pressureJSON != "" {
			if err := writePressureJSON(*pressureJSON, pts); err != nil {
				fmt.Fprintln(os.Stderr, "chorusbench:", err)
				os.Exit(1)
			}
		}
	}

	if *tierAblation {
		fmt.Println("=== Tiered-store placement ablation ===")
		pts := bench.TierAblation([][2]int{{64, 128}, {128, 256}}, bench.DefaultTierConfig)
		fmt.Println(bench.FormatTier(pts))
		if *tierJSON != "" {
			if err := writeTierJSON(*tierJSON, pts); err != nil {
				fmt.Fprintln(os.Stderr, "chorusbench:", err)
				os.Exit(1)
			}
		}
	}

	if *faAblation {
		fmt.Println("=== Warm-resident soft faults: fault-around ablation ===")
		pts := bench.FaultAroundAblation([]int{0, 4, 8}, *faWorkers, *pages, *promote, storeCfg)
		fmt.Println(bench.FormatFaultAround(pts))
		if *benchJSON != "" {
			if err := writeBenchJSON(*benchJSON, *faWorkers, *pages, pts); err != nil {
				fmt.Fprintln(os.Stderr, "chorusbench:", err)
				os.Exit(1)
			}
		}
	}

	if *parallel {
		// A tracer is wired into the runs when anything will consume it.
		var tracer *obs.Tracer
		if *hist || *traceFile != "" {
			tracer = obs.New(obs.Options{})
		}
		cfg := storeCfg
		warm := *faultAround >= 0
		ra := *readAhead
		if warm {
			fmt.Printf("=== Parallel soft-fault throughput (warm resident, fault-around %d, %s store) ===\n", *faultAround, storeLabel(cfg))
			if ra < 8 {
				// The warm working set should land on contiguous frame
				// runs, so promotion has something to promote.
				ra = 8
			}
		} else {
			fmt.Printf("=== Parallel fault throughput (sharded global map, %s store) ===\n", storeLabel(cfg))
		}
		var rs []bench.ParallelResult
		for _, w := range []int{1, 2, 4, 8} {
			rs = append(rs, bench.ParallelFaultThroughputOpts(bench.ParallelOptions{
				Workers:        w,
				Policy:         *policyName,
				PagesPerWorker: *pages,
				PullLatency:    200 * time.Microsecond,
				Tracer:         tracer,
				Store:          cfg,
				// Real backends should serve real content: preload gives
				// "file" actual disk reads and "flate" actual inflates.
				Preload:      cfg.Kind != "" && cfg.Kind != "mem",
				SyncPager:    *syncPager,
				ReadAhead:    ra,
				WarmResident: warm,
				// A single warm sweep lasts low milliseconds; accumulate
				// several so scheduler noise does not swamp the interval.
				Passes:      8,
				FaultAround: max(*faultAround, 0),
				Promote:     *promote && *faultAround > 1,
			}))
		}
		fmt.Println(bench.FormatParallel(rs))
		if cfg.Kind != "mem" || cfg.FaultProb > 0 {
			fmt.Println(bench.FormatParallelStore(rs))
		}
		if tracer != nil {
			snap := tracer.Snapshot()
			if *hist {
				fmt.Println(snap.FaultBreakdown())
				fmt.Println(bench.FormatParallelStats(rs))
				fmt.Println(snap.String())
			}
			if err := writeTrace(*traceFile, *traceFormat, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "chorusbench:", err)
				os.Exit(1)
			}
		}
	}
}

// storeLabel names the backend configuration in the section header.
func storeLabel(cfg store.Config) string {
	l := cfg.Kind
	if l == "" {
		l = "mem"
	}
	if cfg.FaultProb > 0 {
		l += fmt.Sprintf(" + %.1f%% faults", cfg.FaultProb*100)
	}
	return l
}

// writeBenchJSON dumps the fault-around ablation as one machine-readable
// JSON document, the shape CI archives as BENCH_fault.json.
func writeBenchJSON(path string, workers, pages int, pts []bench.FaultAroundPoint) error {
	type point struct {
		FaultAround       int     `json:"fault_around"`
		FaultsPerSec      float64 `json:"faults_per_sec"`
		HWFaults          uint64  `json:"hw_faults"`
		SoftFaults        uint64  `json:"soft_faults"`
		FaultAroundMapped uint64  `json:"fault_around_mapped"`
		Promotions        uint64  `json:"promotions"`
		Demotions         uint64  `json:"demotions"`
		P99FaultNS        int64   `json:"p99_fault_ns"`
		Speedup           float64 `json:"speedup"`
	}
	doc := struct {
		Benchmark      string  `json:"benchmark"`
		Workers        int     `json:"workers"`
		PagesPerWorker int     `json:"pages_per_worker"`
		Points         []point `json:"points"`
	}{Benchmark: "fault-around-ablation", Workers: workers, PagesPerWorker: pages}
	for _, pt := range pts {
		speedup := 1.0
		if pts[0].Result.FaultsSec > 0 {
			speedup = pt.Result.FaultsSec / pts[0].Result.FaultsSec
		}
		doc.Points = append(doc.Points, point{
			FaultAround:       pt.Width,
			FaultsPerSec:      pt.Result.FaultsSec,
			HWFaults:          pt.Result.Stats.Faults,
			SoftFaults:        pt.Result.Stats.SoftFaults,
			FaultAroundMapped: pt.Result.Stats.FaultAroundMapped,
			Promotions:        pt.Result.Stats.Promotions,
			Demotions:         pt.Result.Stats.Demotions,
			P99FaultNS:        pt.P99.Nanoseconds(),
			Speedup:           speedup,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writePressureJSON dumps the replacement-policy ablation as one
// machine-readable JSON document, the shape CI archives as
// BENCH_pressure.json.
func writePressureJSON(path string, pts []bench.PressurePoint) error {
	type point struct {
		Policy        string  `json:"policy"`
		Overcommit    float64 `json:"overcommit"`
		RegionPages   int     `json:"region_pages"`
		Accesses      int     `json:"accesses"`
		HardFaults    uint64  `json:"hard_faults"`
		SoftFaults    uint64  `json:"soft_faults"`
		Evictions     uint64  `json:"evictions"`
		SecondChances uint64  `json:"second_chances"`
		Promotions    uint64  `json:"promotions"`
		FaultsPer1K   float64 `json:"faults_per_1k_accesses"`
		P50SimNS      int64   `json:"p50_sim_ns"`
		P99SimNS      int64   `json:"p99_sim_ns"`
		SimTotalNS    int64   `json:"sim_total_ns"`
		WallAccPerSec float64 `json:"wall_accesses_per_sec"`
	}
	doc := struct {
		Benchmark string  `json:"benchmark"`
		Frames    int     `json:"frames"`
		Points    []point `json:"points"`
	}{Benchmark: "pressure-ablation", Frames: bench.DefaultPressureConfig.Frames}
	for _, pt := range pts {
		doc.Points = append(doc.Points, point{
			Policy:        pt.Policy,
			Overcommit:    pt.Overcommit,
			RegionPages:   pt.RegionPages,
			Accesses:      pt.Accesses,
			HardFaults:    pt.Faults,
			SoftFaults:    pt.SoftFaults,
			Evictions:     pt.Evictions,
			SecondChances: pt.SecondChances,
			Promotions:    pt.Promotions,
			FaultsPer1K:   pt.FaultsPer1K,
			P50SimNS:      pt.P50.Nanoseconds(),
			P99SimNS:      pt.P99.Nanoseconds(),
			SimTotalNS:    pt.Sim.Nanoseconds(),
			WallAccPerSec: pt.WallPerSec,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTierJSON dumps the tiered-store ablation as one machine-readable
// JSON document, the shape CI archives as BENCH_tier.json.
func writeTierJSON(path string, pts []bench.TierPoint) error {
	type point struct {
		Mode         string  `json:"mode"`
		HotPages     int     `json:"hot_pages"`
		WarmPages    int     `json:"warm_pages"`
		Accesses     int     `json:"accesses"`
		HardFaults   uint64  `json:"hard_faults"`
		Evictions    uint64  `json:"evictions"`
		Promotions   uint64  `json:"promotions"`
		Demotions    uint64  `json:"demotions"`
		HotReads     uint64  `json:"hot_reads"`
		WarmReads    uint64  `json:"warm_reads"`
		ColdReads    uint64  `json:"cold_reads"`
		SimTotalNS   int64   `json:"sim_total_ns"`
		FaultsPerSec float64 `json:"faults_per_sec"`
	}
	doc := struct {
		Benchmark string  `json:"benchmark"`
		Frames    int     `json:"frames"`
		Region    int     `json:"region_pages"`
		Points    []point `json:"points"`
	}{
		Benchmark: "tier-ablation",
		Frames:    bench.DefaultTierConfig.Frames,
		Region:    bench.DefaultTierConfig.RegionPages,
	}
	for _, pt := range pts {
		doc.Points = append(doc.Points, point{
			Mode:         pt.Mode,
			HotPages:     pt.HotPages,
			WarmPages:    pt.WarmPages,
			Accesses:     pt.Accesses,
			HardFaults:   pt.HardFaults,
			Evictions:    pt.Evictions,
			Promotions:   pt.Promotions,
			Demotions:    pt.Demotions,
			HotReads:     pt.HotReads,
			WarmReads:    pt.WarmReads,
			ColdReads:    pt.ColdReads,
			SimTotalNS:   pt.Sim.Nanoseconds(),
			FaultsPerSec: pt.FaultsSec,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace dumps the tracer's event ring to path (no-op when path is
// empty).
func writeTrace(path, format string, tracer *obs.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, format, tracer.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
