// Dsmcluster: distributed coherent virtual memory across three simulated
// machines — the use the paper gives for the GMI's cache-control
// operations (section 3.3.3). Each "site" runs its own PVM; a coherence
// manager keeps their local caches of one shared segment single-writer/
// multiple-readers using sync, invalidate, setProtection and the
// getWriteAccess upcall.
//
// Run: go run ./examples/dsmcluster
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/dsm"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

const (
	pageSize = 8192
	base     = gmi.VA(0x10000)
	pages    = 4
)

type machine struct {
	name string
	site *dsm.Site
	ctx  gmi.Context
	swap *seg.SwapAllocator
}

func main() { os.Exit(run(os.Stdout)) }

// fail reports err on stderr and returns the exit status for run.
func fail(err error) int {
	log.Print(err)
	return 1
}

// run plays the example, writing its report to w; it returns the exit
// status.
func run(w io.Writer) int {
	mgr := dsm.NewManager(pageSize, cost.New())
	mgr.Home().WriteAt(0, []byte("initial contents from the home site"))

	var cluster []*machine
	for _, name := range []string{"alpha", "beta", "gamma"} {
		clock := cost.New()
		swap := seg.NewSwapAllocator(pageSize, clock)
		mm := core.New(core.Options{
			Frames: 256, PageSize: pageSize, Clock: clock,
			SegAlloc: swap,
		})
		site, cache := mgr.Attach(name, mm)
		ctx, err := mm.ContextCreate()
		if err != nil {
			return fail(err)
		}
		if _, err := ctx.RegionCreate(base, pages*pageSize, gmi.ProtRW, cache, 0); err != nil {
			return fail(err)
		}
		cluster = append(cluster, &machine{name: name, site: site, ctx: ctx, swap: swap})
	}

	// Everyone reads the initial data: pure read sharing, one fetch each.
	buf := make([]byte, 35)
	for _, m := range cluster {
		if err := m.ctx.Read(base, buf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "%-6s reads: %q\n", m.name, buf)
	}

	// Alpha writes: its first store upgrades via getWriteAccess and the
	// other copies are invalidated.
	if err := cluster[0].ctx.Write(base, []byte("alpha was here, coherently.........")); err != nil {
		return fail(err)
	}
	fmt.Fprintln(w, "\nalpha writes the page...")
	for _, m := range cluster[1:] {
		if err := m.ctx.Read(base, buf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "%-6s reads: %q\n", m.name, buf)
	}

	// Beta takes the page over.
	if err := cluster[1].ctx.Write(base, []byte("beta overwrites it afterwards......")); err != nil {
		return fail(err)
	}
	fmt.Fprintln(w, "\nbeta writes the page...")
	for _, m := range []*machine{cluster[0], cluster[2]} {
		if err := m.ctx.Read(base, buf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "%-6s reads: %q\n", m.name, buf)
	}

	fmt.Fprintln(w, "\ncoherence traffic:")
	for _, m := range cluster {
		fmt.Fprintf(w, "  %-6s fetches=%d upgrades=%d downgrades=%d invalidates=%d\n",
			m.name, m.site.Fetches, m.site.Upgrades, m.site.Downgrades, m.site.Invalidates)
	}
	if err := mgr.Invariant(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(w, "directory invariant holds: single writer or multiple readers, per page")

	// Each machine's swap allocator owns the swap segments it made;
	// closing it stops their I/O workers.
	for _, m := range cluster {
		if err := m.swap.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}
