package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/dsm"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// DSMResult summarizes the coherence extension's two canonical access
// patterns over one shared page.
type DSMResult struct {
	PingPongSim   time.Duration // per write+read round between two sites
	ReadShareSim  time.Duration // per read when n sites share read-only
	Downgrades    int
	Invalidations int
}

// DSM measures the distributed-coherence extension: the ping-pong worst
// case (two alternating writers) and the read-sharing best case.
func DSM(rounds int) DSMResult {
	var swaps []*seg.SwapAllocator
	defer func() {
		for _, swap := range swaps {
			mustClose(swap)
		}
	}()
	newSite := func(mgr *dsm.Manager, name string) (gmi.Context, *dsm.Site) {
		clock := cost.New()
		swap := seg.NewSwapAllocator(8192, clock)
		swaps = append(swaps, swap)
		mm := core.New(core.Options{
			Frames: 64, PageSize: 8192, Clock: clock,
			SegAlloc: swap,
		})
		s, cache := mgr.Attach(name, mm)
		ctx, err := mm.ContextCreate()
		if err != nil {
			panic(err)
		}
		if _, err := ctx.RegionCreate(benchBase, 8192, gmi.ProtRW, cache, 0); err != nil {
			panic(err)
		}
		return ctx, s
	}

	var res DSMResult
	// Ping-pong: alternate writers; simulated time is the coherence
	// manager's home-site clock plus both site clocks — approximate with
	// wall-independent event counts on a fresh manager clock.
	mclock := cost.New()
	mgr := dsm.NewManager(8192, mclock)
	actx, a := newSite(mgr, "a")
	bctx, b := newSite(mgr, "b")
	one := []byte{1}
	start := mclock.Snapshot()
	wall := time.Now()
	for i := 0; i < rounds; i++ {
		if err := actx.Write(benchBase, one); err != nil {
			panic(err)
		}
		if err := bctx.Read(benchBase, one); err != nil {
			panic(err)
		}
		if err := bctx.Write(benchBase, one); err != nil {
			panic(err)
		}
		if err := actx.Read(benchBase, one); err != nil {
			panic(err)
		}
	}
	_ = wall
	res.PingPongSim = mclock.Since(start) / time.Duration(2*rounds)
	res.Downgrades = a.Downgrades + b.Downgrades
	res.Invalidations = a.Invalidates + b.Invalidates

	// Read sharing: after one warm-up, repeated reads are local.
	mclock2 := cost.New()
	mgr2 := dsm.NewManager(8192, mclock2)
	var ctxs []gmi.Context
	for i := 0; i < 3; i++ {
		ctx, _ := newSite(mgr2, fmt.Sprintf("r%d", i))
		ctxs = append(ctxs, ctx)
		if err := ctx.Read(benchBase, one); err != nil {
			panic(err)
		}
	}
	start2 := mclock2.Snapshot()
	for i := 0; i < rounds; i++ {
		for _, ctx := range ctxs {
			if err := ctx.Read(benchBase, one); err != nil {
				panic(err)
			}
		}
	}
	res.ReadShareSim = mclock2.Since(start2) / time.Duration(rounds*len(ctxs))
	return res
}

// Format renders the DSM measurements.
func (r DSMResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "distributed coherence over GMI cache control (extension)\n")
	fmt.Fprintf(&b, "  ping-pong write+read round: %8.3f ms home-site time (%d downgrades, %d invalidations)\n",
		float64(r.PingPongSim)/float64(time.Millisecond), r.Downgrades, r.Invalidations)
	fmt.Fprintf(&b, "  shared read (warm):         %8.3f ms home-site time per read\n",
		float64(r.ReadShareSim)/float64(time.Millisecond))
	return b.String()
}
