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
	"log"

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

func main() {
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
			log.Fatal(err)
		}
		if _, err := ctx.RegionCreate(base, pages*pageSize, gmi.ProtRW, cache, 0); err != nil {
			log.Fatal(err)
		}
		cluster = append(cluster, &machine{name: name, site: site, ctx: ctx, swap: swap})
	}

	// Everyone reads the initial data: pure read sharing, one fetch each.
	buf := make([]byte, 35)
	for _, m := range cluster {
		if err := m.ctx.Read(base, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s reads: %q\n", m.name, buf)
	}

	// Alpha writes: its first store upgrades via getWriteAccess and the
	// other copies are invalidated.
	if err := cluster[0].ctx.Write(base, []byte("alpha was here, coherently.........")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalpha writes the page...")
	for _, m := range cluster[1:] {
		if err := m.ctx.Read(base, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s reads: %q\n", m.name, buf)
	}

	// Beta takes the page over.
	if err := cluster[1].ctx.Write(base, []byte("beta overwrites it afterwards......")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbeta writes the page...")
	for _, m := range []*machine{cluster[0], cluster[2]} {
		if err := m.ctx.Read(base, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s reads: %q\n", m.name, buf)
	}

	fmt.Println("\ncoherence traffic:")
	for _, m := range cluster {
		fmt.Printf("  %-6s fetches=%d upgrades=%d downgrades=%d invalidates=%d\n",
			m.name, m.site.Fetches, m.site.Upgrades, m.site.Downgrades, m.site.Invalidates)
	}
	if err := mgr.Invariant(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("directory invariant holds: single writer or multiple readers, per page")

	// Each machine's swap allocator owns the swap segments it made;
	// closing it stops their I/O workers.
	for _, m := range cluster {
		if err := m.swap.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
