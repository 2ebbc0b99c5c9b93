// Command perfbench is the repository benchmark: three named workloads
// that drive the PVM end to end, check every byte they read against an
// oracle, and print end-to-end metrics (tracing off) or per-layer metrics
// (a separate traced run) by name and unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fork-exec --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package into .bench_build/ and executes it. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. METRICS.md in this directory defines
// every metric and names the end-to-end metric each per-layer one should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named load the benchmark can run.
type workload struct {
	name    string
	why     string
	clients int    // closed-loop client goroutines
	options string // the core.Options fields the workload sets
	// round runs one fixed-size round: fresh set-up, the measured ops,
	// teardown. pr is nil in the untraced run.
	round func(seed int64, pr *probes) roundResult
}

var workloads = []workload{
	{
		name:    "fork-exec",
		why:     "one MIX shell forks, the child rewrites inherited pages, pipes a page back and execs: history objects, COW, per-page stubs, warm exec, transit IPC",
		clients: 1,
		options: fmt.Sprintf("Frames=%d", feFrames),
		round:   forkExecRound,
	},
	{
		name:    "fault-in",
		why:     "2 workers re-read preloaded file-store segments after Cache.Invalidate: async pager, map shards, seg, store.Engine read path, mmu map/unmap, phys alloc/free",
		clients: fiWorkers,
		options: fmt.Sprintf("Frames=%d SegAlloc=SwapAllocator(file)", fiFrames),
		round:   faultInRound,
	},
	{
		name:    "reclaim",
		why:     "2 workers' anonymous regions are 2x frames; Zipf+scan reads/writes with the pageout daemon and file swap: victim selection, push-out, segmentCreate, frame recycling",
		clients: rcWorkers,
		options: fmt.Sprintf("Frames=%d SegAlloc=SwapAllocator(file)", rcFrames),
		round:   reclaimRound,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundResult is what one round reports. Latencies are of successful ops
// only; failed ops count in failed and in nothing else.
type roundResult struct {
	setup    time.Duration // fresh set-up before the measured ops
	wall     time.Duration // measured interval
	attempts int
	failed   int
	crashed  bool            // the round's teardown panicked (recovered, counted in failed)
	lat      []time.Duration // per-op latencies, dropped by summarize
	sim      time.Duration   // simulated time charged during the measured interval
	layers   *layerCounts

	samples   int
	p50, p99  time.Duration
	stealRate float64 // CPU ticks per second the hypervisor took during the round
}

// summarize reduces the round's latencies to its percentiles and drops
// them, so what the benchmark keeps between rounds stays small and every
// round runs against the same live heap.
func (rr *roundResult) summarize() {
	lat := rr.lat
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rr.samples = len(lat)
	if len(lat) > 0 {
		rr.p50, rr.p99 = lat[len(lat)/2], lat[len(lat)*99/100]
	}
	rr.lat = nil
}

// opsPerS is the round's successful measured ops per wall second.
func (rr *roundResult) opsPerS() float64 { return float64(rr.samples) / rr.wall.Seconds() }

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fork-exec, fault-in or reclaim")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure; whole rounds run until it has passed")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fork-exec|fault-in|reclaim, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	printEnv(w, *seed, *trace == 1)
	res := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printEnv(w workload, seed int64, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("env commit=%s go=%s num_cpu=%d gomaxprocs=%d seed=%d traced=%v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, traced)
	fmt.Printf("workload %s clients=%d core.Options{%s}, every other field default\n", w.name, w.clients, w.options)
	fmt.Printf("why %s\n", w.why)
}

// runWorkload runs one warm-up round, then whole rounds until d has
// passed (at least one), and derives the metrics from the rounds after
// the warm-up; the warm-up's ops still count as attempted and failed.
// Round r uses seed*1000003+r, so a seed fixes every round's inputs, and
// each round starts from a collected heap so rounds compare like for like.
func runWorkload(w workload, seed int64, d time.Duration, traced bool) result {
	var rounds []roundResult
	var start time.Time
	for r := int64(0); r < 2 || time.Since(start) < d; r++ {
		var pr *probes
		if traced {
			pr = newProbes()
		}
		runtime.GC()
		if r == 1 {
			start = time.Now()
		}
		steal0, t0 := stealTicks(), time.Now()
		rr := w.round(seed*1000003+r, pr)
		rr.stealRate = float64(stealTicks()-steal0) / time.Since(t0).Seconds()
		rr.summarize()
		rounds = append(rounds, rr)
	}
	res := result{Metrics: map[string]metric{}}
	crashed := 0
	for _, rr := range rounds {
		res.Attempted += rr.attempts
		res.Failed += rr.failed
		if rr.crashed {
			crashed++
		}
	}
	res.Correct = res.Failed == 0
	var per []string
	for _, rr := range rounds[1:] {
		per = append(per, fmt.Sprintf("%.0f/%.0f", rr.opsPerS(), float64(rr.p99)/1e3))
	}
	fmt.Printf("ops_per_s/op_p99_us by round: %s\n", strings.Join(per, " "))
	e2e := endToEndOf(rounds[1:])
	fmt.Printf("rounds=%d (first is warm-up) attempted=%d failed=%d fail_ratio=%.6f crashed_rounds=%d latency_samples=%d\n",
		len(rounds), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), crashed, e2e.samples)
	if traced {
		for _, m := range perLayer(rounds[1:], e2e) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		for _, m := range e2e.list() {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return res
}

// endToEnd holds the end-to-end metrics of a run. Throughput, latency
// percentiles and set-up time are each the median over rounds of the
// per-round figure, taken over the rounds leastStolen keeps;
// sim_ms_per_op is the run's total simulated time over its ops;
// max_rss_mb is the process's peak.
type endToEnd struct {
	opsPerS, p50us, p99us, simMsPerOp, maxRSSMB, setupS float64
	samples                                             int
}

func endToEndOf(rounds []roundResult) endToEnd {
	var tput, setups, p50, p99 []float64
	var sim time.Duration
	e := endToEnd{maxRSSMB: maxRSSMB()}
	ops := 0
	for _, rr := range rounds {
		sim += rr.sim
		ops += rr.attempts
		e.samples += rr.samples
	}
	e.simMsPerOp = float64(sim) / float64(time.Millisecond) / float64(ops)
	timed := leastStolen(rounds)
	for _, rr := range timed {
		tput = append(tput, rr.opsPerS())
		setups = append(setups, rr.setup.Seconds())
		p50 = append(p50, float64(rr.p50)/1e3)
		p99 = append(p99, float64(rr.p99)/1e3)
	}
	e.opsPerS = median(tput)
	e.setupS = median(setups)
	e.p50us = median(p50)
	e.p99us = median(p99)
	fmt.Printf("timings from %d of %d rounds: those whose hypervisor steal (%.1f ticks/s in the median round) was at most the median\n",
		len(timed), len(rounds), median(stealRates(rounds)))
	return e
}

// leastStolen keeps the rounds during which the hypervisor took no more
// CPU time per second than during the median round. On a shared host a
// round the virtual CPUs were descheduled for measures the neighbours,
// not the program; with no steal at all every round is kept. Which rounds
// are kept depends on the host only, never on the rounds' own timings.
func leastStolen(rounds []roundResult) []roundResult {
	m := median(stealRates(rounds))
	var out []roundResult
	for _, rr := range rounds {
		if rr.stealRate <= m {
			out = append(out, rr)
		}
	}
	return out
}

func stealRates(rounds []roundResult) []float64 {
	var r []float64
	for _, rr := range rounds {
		r = append(r, rr.stealRate)
	}
	return r
}

// stealTicks reads the CPU time the hypervisor has taken from this
// machine, in clock ticks, from /proc/stat; 0 where that is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (e endToEnd) list() []namedValue {
	return []namedValue{
		{"ops_per_s", e.opsPerS, "1/s"},
		{"op_p50_us", e.p50us, "us"},
		{"op_p99_us", e.p99us, "us"},
		{"sim_ms_per_op", e.simMsPerOp, "ms"},
		{"max_rss_mb", e.maxRSSMB, "MB"},
		{"setup_s", e.setupS, "s"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
