// Forkcow: the workload the paper's history objects exist for — a Unix
// shell pattern of fork/exec/exit driven through the Chorus/MIX layer
// (section 5.1.5). It shows that forking a process with a large data
// segment copies nothing, that writes copy exactly the touched pages, and
// that the history tree collapses back as children exit.
//
// Run: go run ./examples/forkcow
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mix"
	"chorusvm/internal/nucleus"
)

const pageSize = 8192

func main() { os.Exit(run(os.Stdout)) }

// fail reports err on stderr and returns the exit status for run.
func fail(err error) int {
	log.Print(err)
	return 1
}

// run plays the example, writing its report to w; it returns the exit
// status.
func run(w io.Writer) int {
	clock := cost.New()
	site := nucleus.NewSite(clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
		return core.New(core.Options{Frames: 2048, PageSize: pageSize, Clock: clock, SegAlloc: sa})
	})
	defer site.Close()
	sys := mix.NewSystem(site)
	pvm := site.MM.(*core.PVM)

	// Install a "shell" binary: 2 pages of text, 64 pages (512 KB) of
	// initialized data.
	text := bytes.Repeat([]byte{0xC3}, 2*pageSize) // ret, ret, ret...
	data := make([]byte, 64*pageSize)
	for i := range data {
		data[i] = byte(i / pageSize)
	}
	shell, err := sys.InstallBinary("shell", text, data)
	if err != nil {
		return fail(err)
	}

	sh, err := sys.Spawn(shell, func(p *mix.Process) int {
		before := pvm.Stats()
		fmt.Fprintf(w, "parent up: %d pages of data mapped\n", 64)

		// Fork three children, shell-style; each touches a few pages
		// and exits.
		for round := 1; round <= 3; round++ {
			preFork := pvm.Stats()
			child, err := p.Fork(func(c *mix.Process) int {
				// The child sees the parent's data...
				buf := make([]byte, 16)
				if err := c.Read(mix.DataBase+3*pageSize, buf); err != nil {
					return 1
				}
				// ...and dirties two pages of its private copy.
				if err := c.Write(mix.DataBase, []byte("child scribble")); err != nil {
					return 1
				}
				if err := c.Write(mix.DataBase+10*pageSize, []byte("more")); err != nil {
					return 1
				}
				return 0
			})
			if err != nil {
				return fail(err)
			}
			if st := child.Wait(); st != 0 {
				return fail(fmt.Errorf("child failed: %d", st))
			}
			post := pvm.Stats()
			fmt.Fprintf(w, "fork %d: copies materialized by child writes: %d pages "+
				"(of 64 copied logically); history pushes: %d\n",
				round,
				post.CowBreaks-preFork.CowBreaks,
				post.HistoryPushes-preFork.HistoryPushes)
		}

		// The parent writes one page; with all children gone, no history
		// preservation is needed.
		preWrite := pvm.Stats()
		if err := p.Write(mix.DataBase+5*pageSize, []byte("parent writes")); err != nil {
			return fail(err)
		}
		postWrite := pvm.Stats()
		fmt.Fprintf(w, "parent write after children exit: %d history pushes (expected 0)\n",
			postWrite.HistoryPushes-preWrite.HistoryPushes)

		after := pvm.Stats()
		fmt.Fprintf(w, "\ntotals: faults=%d cow-breaks=%d history-pushes=%d collapses=%d\n",
			after.Faults-before.Faults, after.CowBreaks-before.CowBreaks,
			after.HistoryPushes-before.HistoryPushes, after.Collapses-before.Collapses)
		fmt.Fprintf(w, "live cache descriptors: %d (the tree collapsed behind the children)\n",
			pvm.CacheCount())
		return 0
	})
	if err != nil {
		return fail(err)
	}
	// Wait returns once the shell has exited and its address space is
	// torn down, so the clock below includes the teardown.
	if st := sh.Wait(); st != 0 {
		return st
	}
	fmt.Fprintf(w, "simulated time: %v\n", clock.Elapsed())
	return 0
}
