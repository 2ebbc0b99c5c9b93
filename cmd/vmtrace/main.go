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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chorusvm/internal/core"
	"chorusvm/internal/obs"
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

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the chosen script with
// its output on stdout, and returns the exit status (2 for a usage
// error, 1 for a failed script).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runDemo := fs.Bool("demo", false, "run the built-in demonstration script")
	frames := fs.Int("frames", 1024, "physical frames")
	traceFile := fs.String("trace", "", "write the captured event trace to this file (enables tracing)")
	traceFormat := fs.String("trace-format", obs.FormatChrome, "trace encoding: text, jsonl or chrome (chrome://tracing / Perfetto)")
	hist := fs.Bool("hist", false, "print latency histograms after the script (enables tracing)")
	storeKind := fs.String("store", "mem", "backing store for script-created segments: mem, file or flate (scripts can override with the `store` statement)")
	storeDir := fs.String("store-dir", "", "directory for -store file page files (required with -store file)")
	storeFaults := fs.Float64("store-faults", 0, "per-op probability of injected transient store faults (0 disables)")
	faultAround := fs.Int("fault-around", 0, "map up to this many resident neighbours per fault (power of two <= 8, 0 disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate the flag combination before building anything: a bad
	// combination is a usage error, not a mid-run failure.
	storeCfg := store.Config{Kind: *storeKind, Dir: *storeDir, FaultProb: *storeFaults, Seed: 1}
	if err := storeCfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "vmtrace: %v\n\n", err)
		fs.Usage()
		return 2
	}

	if *faultAround < 0 || *faultAround > 8 || (*faultAround > 1 && *faultAround&(*faultAround-1) != 0) {
		fmt.Fprintf(stderr, "vmtrace: -fault-around %d invalid (want a power of two <= 8, or 0 to disable)\n\n", *faultAround)
		fs.Usage()
		return 2
	}

	opts := core.Options{Frames: *frames, FaultAroundPages: *faultAround}
	if *traceFile != "" || *hist {
		// The interpreter would otherwise create a disabled tracer that
		// scripts must `trace on` themselves; these flags ask for the
		// whole run captured.
		opts.Tracer = obs.New(obs.Options{})
	}
	in, err := script.New(stdout, opts)
	if err != nil {
		fmt.Fprintln(stderr, "vmtrace:", err)
		return 1
	}
	if *storeKind != "mem" || *storeFaults > 0 {
		if serr := in.SetStore(storeCfg); serr != nil {
			fmt.Fprintln(stderr, "vmtrace:", serr)
			return 1
		}
	}
	switch {
	case *runDemo:
		err = in.Run(strings.NewReader(demoScript))
	case fs.NArg() == 1 && fs.Arg(0) == "-":
		err = in.Run(stdin)
	case fs.NArg() == 1:
		f, ferr := os.Open(fs.Arg(0))
		if ferr != nil {
			fmt.Fprintln(stderr, "vmtrace:", ferr)
			return 1
		}
		defer f.Close()
		err = in.Run(f)
	default:
		fmt.Fprintln(stderr, "usage: vmtrace [-demo] [-trace=FILE [-trace-format=F]] [-hist] [file.vt | -]")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "vmtrace:", err)
		return 1
	}
	tracer := in.PVM().Tracer()
	if *hist {
		fmt.Fprint(stdout, tracer.Snapshot().String())
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
			fmt.Fprintln(stderr, "vmtrace:", ferr)
			return 1
		}
	}
	return 0
}
