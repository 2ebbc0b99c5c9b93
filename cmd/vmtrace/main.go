// Command vmtrace runs PVM trace scripts — the spirit of the Chorus
// Nucleus Simulator the paper describes in section 5.2 as a development
// tool and teaching aid. See internal/script for the language.
//
// Usage:
//
//	vmtrace file.vt        # run a script file
//	vmtrace -              # read a script from stdin
//	vmtrace -demo          # run a built-in fork/COW demonstration
//	vmtrace -demo -trace=out.json -trace-format=chrome
//	                       # + capture an event trace for chrome://tracing
//	vmtrace -demo -hist    # + print latency histograms at exit
//	vmtrace -store file -store-dir /tmp/pages file.vt
//	                       # preloaded caches + swap on real page files
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chorusvm/internal/core"
	"chorusvm/internal/obs"
	"chorusvm/internal/policy"
	"chorusvm/internal/script"
	"chorusvm/internal/store"
)

const demoScript = `# fork-style deferred copy, narrated
cache src
region rsrc src 0x10000 4
write rsrc 0x0 0x11 0x4000
cache child
copy src 0 child 0 4
tree
write rsrc 0x0 0x99 0x10         # parent writes: original preserved
region rchild child 0x40000 4
expect rchild 0x0 0x11 0x10      # child still sees the original
tree
stats
clock
`

func main() {
	runDemo := flag.Bool("demo", false, "run the built-in demonstration script")
	frames := flag.Int("frames", 1024, "physical frames")
	traceFile := flag.String("trace", "", "write the captured event trace to this file (enables tracing)")
	traceFormat := flag.String("trace-format", obs.FormatChrome, "trace encoding: text, jsonl or chrome (chrome://tracing / Perfetto)")
	hist := flag.Bool("hist", false, "print latency histograms after the script (enables tracing)")
	storeKind := flag.String("store", "mem", "backing store for script-created segments: "+strings.Join(store.Kinds(), ", ")+" (scripts can override with the `store` statement)")
	storeDir := flag.String("store-dir", "", "directory for -store file page files (required with -store file; with -store tiered it makes the cold tier a journaled page file)")
	storeFaults := flag.Float64("store-faults", 0, "per-op probability of injected transient store faults (0 disables)")
	tierHot := flag.Int("tier-hot", 0, "-store tiered/remote: hot-tier capacity in pages (0 = default)")
	tierWarm := flag.Int("tier-warm", 0, "-store tiered/remote: warm-tier capacity in pages (0 = default)")
	storeAddr := flag.String("store-addr", "", "-store remote transport: pipe (default) or tcp")
	framepool := flag.Bool("framepool", false, "start the background frame zeroer before the script (scripts can also toggle it with `framepool on|off`)")
	faultAround := flag.Int("fault-around", 0, "map up to this many resident neighbours per fault (power of two <= 8, 0 disables)")
	promote := flag.Bool("promote", false, "promote contiguous fault-around clusters to large MMU translations (needs -fault-around >= 2)")
	policyName := flag.String("policy", "", "page-replacement policy: lru, clock or 2q (empty = PVM default; scripts can switch with the `policy` statement)")
	flag.Parse()

	// Validate the flag combination before building anything: a bad
	// combination is a usage error, not a mid-run failure.
	storeCfg := store.Config{
		Kind: *storeKind, Dir: *storeDir, FaultProb: *storeFaults, Seed: 1,
		TierHot: *tierHot, TierWarm: *tierWarm, Addr: *storeAddr,
	}
	if err := storeCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "vmtrace: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *faultAround < 0 || *faultAround > 8 || (*faultAround > 1 && *faultAround&(*faultAround-1) != 0) {
		fmt.Fprintf(os.Stderr, "vmtrace: -fault-around %d invalid (want a power of two <= 8, or 0 to disable)\n\n", *faultAround)
		flag.Usage()
		os.Exit(2)
	}
	if *policyName != "" {
		if _, perr := policy.New(*policyName); perr != nil {
			fmt.Fprintf(os.Stderr, "vmtrace: -policy %q invalid (want one of %s)\n\n",
				*policyName, strings.Join(policy.Names(), ", "))
			flag.Usage()
			os.Exit(2)
		}
	}

	opts := core.Options{Frames: *frames, FaultAroundPages: *faultAround, PromotePages: *promote, Policy: *policyName}
	if *traceFile != "" || *hist {
		// The interpreter would otherwise create a disabled tracer that
		// scripts must `trace on` themselves; these flags ask for the
		// whole run captured.
		opts.Tracer = obs.New(obs.Options{})
	}
	in, err := script.New(os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmtrace:", err)
		os.Exit(1)
	}
	defer in.Close()
	if *framepool {
		if ferr := in.Run(strings.NewReader("framepool on\n")); ferr != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", ferr)
			os.Exit(1)
		}
	}
	if *storeKind != "mem" || *storeFaults > 0 || *tierHot > 0 || *tierWarm > 0 {
		if serr := in.SetStore(storeCfg); serr != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", serr)
			os.Exit(1)
		}
	}
	switch {
	case *runDemo:
		err = in.Run(strings.NewReader(demoScript))
	case flag.NArg() == 1 && flag.Arg(0) == "-":
		err = in.Run(os.Stdin)
	case flag.NArg() == 1:
		f, ferr := os.Open(flag.Arg(0))
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", ferr)
			os.Exit(1)
		}
		defer f.Close()
		err = in.Run(f)
	default:
		fmt.Fprintln(os.Stderr, "usage: vmtrace [-demo] [-trace=FILE [-trace-format=F]] [-hist] [file.vt | -]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmtrace:", err)
		os.Exit(1)
	}
	tracer := in.PVM().Tracer()
	if *hist {
		fmt.Print(tracer.Snapshot().String())
	}
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr == nil {
			ferr = obs.WriteTrace(f, *traceFormat, tracer.Events())
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "vmtrace:", ferr)
			os.Exit(1)
		}
	}
}
