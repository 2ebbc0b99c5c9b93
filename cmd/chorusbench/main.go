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
//	chorusbench -parallel -fault-around 8
//	                           # warm-resident soft faults, mapping 8-page
//	                           # clusters per fault (0 = same workload, off)
//	chorusbench -fault-around-ablation
//	                           # the same workload at widths 0/4/8
//	chorusbench -pressure      # replacement-policy ablation: lru/clock/2q
//	                           # under Zipf + scan at 0.5x/1x/2x of memory
//	chorusbench -parallel -policy clock
//	                           # policy bookkeeping overhead on the fault path
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the chosen tables and
// ablations on stdout, and returns the exit status (2 for a usage error,
// 1 for a failed trace write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chorusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "regenerate only table 6 or 7 (0 = both)")
	derive := fs.Bool("derive", true, "print the section 5.3.2 derived overheads")
	ablations := fs.Bool("ablations", false, "run the ablation benchmarks")
	parallel := fs.Bool("parallel", false, "run the parallel fault-throughput benchmark")
	iters := fs.Int("iters", 32, "iterations per cell")
	frames := fs.Int("frames", 2048, "physical frames per memory manager")
	hist := fs.Bool("hist", false, "print latency histograms and the fault-stage breakdown (wall-clock; implies tracing the -parallel runs)")
	traceFile := fs.String("trace", "", "write the captured event trace to this file")
	traceFormat := fs.String("trace-format", obs.FormatChrome, "trace encoding: text, jsonl or chrome (chrome://tracing / Perfetto)")
	storeKind := fs.String("store", "mem", "backing store for the -parallel worker segments: mem, file or flate")
	storeDir := fs.String("store-dir", "", "directory for -store file page files (required with -store file)")
	storeFaults := fs.Float64("store-faults", 0, "per-op probability of injected transient store faults (0 disables)")
	syncPager := fs.Bool("sync-pager", false, "force the synchronous pullIn upcall path in -parallel (protocol ablation baseline)")
	readAhead := fs.Int("readahead", 1, "cluster -parallel fills over up to this many contiguous pages")
	pages := fs.Int("pages", 64, "pages each -parallel worker faults (larger runs average out timer noise)")
	faultAround := fs.Int("fault-around", -1, "map up to this many resident neighbours per fault (power of two <= 8; 0 disables; setting >= 0 switches -parallel to the warm-resident soft-fault workload)")
	faAblation := fs.Bool("fault-around-ablation", false, "run the warm-resident fault-around ablation at widths 0/4/8")
	faWorkers := fs.Int("fault-around-workers", 2, "concurrent workers in the fault-around ablation (the soft-fault workload is CPU-bound, so match the machine, not the device)")
	policyName := fs.String("policy", "", "page-replacement policy for the -parallel runs: lru, clock or 2q (empty = PVM default)")
	pressure := fs.Bool("pressure", false, "run the replacement-policy pressure ablation (lru/clock/2q under Zipf + scan bursts at 0.5x/1x/2x of physical memory)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate the flag combination before any work: a bad combination is
	// a usage error, not a mid-run failure.
	storeCfg := store.Config{Kind: *storeKind, Dir: *storeDir, FaultProb: *storeFaults, Seed: 1}
	if err := storeCfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "chorusbench: %v\n\n", err)
		fs.Usage()
		return 2
	}
	if *readAhead < 1 {
		fmt.Fprintf(stderr, "chorusbench: -readahead %d out of range (want >= 1)\n\n", *readAhead)
		fs.Usage()
		return 2
	}
	if *pages < 1 {
		fmt.Fprintf(stderr, "chorusbench: -pages %d out of range (want >= 1)\n\n", *pages)
		fs.Usage()
		return 2
	}
	if *faultAround > 8 || (*faultAround > 1 && *faultAround&(*faultAround-1) != 0) {
		fmt.Fprintf(stderr, "chorusbench: -fault-around %d invalid (want a power of two <= 8, or 0 to disable)\n\n", *faultAround)
		fs.Usage()
		return 2
	}
	if *policyName != "" {
		if _, err := policy.New(*policyName); err != nil {
			fmt.Fprintf(stderr, "chorusbench: -policy %q invalid (want one of %s)\n\n",
				*policyName, strings.Join(policy.Names(), ", "))
			fs.Usage()
			return 2
		}
	}

	chorus := bench.PVM(core.Options{Frames: *frames, SmallCopyPages: -1})
	mach := bench.Mach(machvm.Options{Frames: *frames})

	var t6c, t7c *bench.Matrix
	if *table == 0 || *table == 6 {
		fmt.Fprintln(stdout, "=== Table 6: zero-filled memory allocation ===")
		t6c = bench.Run("Chorus (PVM, history objects)", chorus, bench.ZeroFill, *iters)
		fmt.Fprintln(stdout, t6c.Format(8))
		t6m := bench.Run("Mach (shadow objects)", mach, bench.ZeroFill, *iters)
		fmt.Fprintln(stdout, t6m.Format(8))
	}
	if *table == 0 || *table == 7 {
		fmt.Fprintln(stdout, "=== Table 7: copy-on-write ===")
		t7c = bench.Run("Chorus (PVM, history objects)", chorus, bench.CopyOnWrite, *iters)
		fmt.Fprintln(stdout, t7c.Format(8))
		t7m := bench.Run("Mach (shadow objects)", mach, bench.CopyOnWrite, *iters)
		fmt.Fprintln(stdout, t7m.Format(8))
	}
	if *derive && t6c != nil && t7c != nil {
		fmt.Fprintln(stdout, "=== Section 5.3.2: derived overheads ===")
		fmt.Fprintln(stdout, bench.Derive(t6c, t7c).Format())
	}

	if *ablations {
		fmt.Fprintln(stdout, "=== Ablations (DESIGN.md section 5) ===")
		pts := bench.DeferredCopyCrossover([]int{1, 2, 4, 8, 16, 32, 64}, func(int) int { return 1 }, *iters)
		fmt.Fprintln(stdout, bench.FormatCrossover(pts))
		fmt.Fprintln(stdout, bench.ExecSegmentCache(32, *iters).Format())
		fmt.Fprintln(stdout, bench.HistoryCollapse(8, 32).Format())
		ipcs := bench.IPCTransfer([]int{4 << 10, 16 << 10, 64 << 10}, *iters)
		fmt.Fprintln(stdout, bench.FormatIPC(ipcs))
		fmt.Fprintln(stdout, bench.FormatReadAhead(bench.ReadAhead([]int{1, 2, 4, 8, 16}, 64, *iters)))
		fmt.Fprintln(stdout, bench.DSM(*iters).Format())
		fmt.Fprintln(stdout, bench.MakeWorkload(8, 16).Format())
		fmt.Fprintln(stdout, bench.CopyPolicy(32, *iters).Format())
		fmt.Fprintln(stdout, bench.FormatMMU(bench.MMUPortability(32, 32, *iters)))
	}

	if *pressure {
		fmt.Fprintln(stdout, "=== Replacement-policy pressure ablation ===")
		pts := bench.PressureAblation(policy.Names(), []float64{0.5, 1, 2}, bench.DefaultPressureConfig)
		fmt.Fprintln(stdout, bench.FormatPressure(pts))
	}

	if *faAblation {
		fmt.Fprintln(stdout, "=== Warm-resident soft faults: fault-around ablation ===")
		pts := bench.FaultAroundAblation([]int{0, 4, 8}, *faWorkers, *pages, storeCfg)
		fmt.Fprintln(stdout, bench.FormatFaultAround(pts))
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
			fmt.Fprintf(stdout, "=== Parallel soft-fault throughput (warm resident, fault-around %d, %s store) ===\n", *faultAround, storeLabel(cfg))
			if ra < 8 {
				// Pre-touch in whole clusters, as the fault-around
				// ablation does.
				ra = 8
			}
		} else {
			fmt.Fprintf(stdout, "=== Parallel fault throughput (sharded global map, %s store) ===\n", storeLabel(cfg))
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
			}))
		}
		fmt.Fprintln(stdout, bench.FormatParallel(rs))
		if cfg.Kind != "mem" || cfg.FaultProb > 0 {
			fmt.Fprintln(stdout, bench.FormatParallelStore(rs))
		}
		if tracer != nil {
			snap := tracer.Snapshot()
			if *hist {
				fmt.Fprintln(stdout, snap.FaultBreakdown())
				fmt.Fprintln(stdout, bench.FormatParallelStats(rs))
				fmt.Fprintln(stdout, snap.String())
			}
			if err := writeTrace(*traceFile, *traceFormat, tracer); err != nil {
				fmt.Fprintln(stderr, "chorusbench:", err)
				return 1
			}
		}
	}
	return 0
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
