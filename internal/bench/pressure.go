package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// Pressure measures the PVM's replacement order (2Q) under memory
// pressure: a single context runs a Zipf-distributed access stream mixed
// with periodic sequential scan bursts over a region sized at a multiple
// of physical memory, with synchronous reclaim and periodic
// referenced-bit harvests — the steady-state the pageout daemon reaches,
// made deterministic. At 0.5x the region fits and nothing is evicted
// (the control row); at 1x and 2x 2Q drains the single-use scan pages
// from its admission queue before they can displace the protected main
// queue. This was the ablation that chose 2Q over an exact LRU queue
// and clock (EXPERIMENTS.md).
//
// Fixed seed, fixed access count, single goroutine: two runs of the same
// overcommit cell fault on exactly the same pages.

// PressurePoint is one cell of the ablation.
type PressurePoint struct {
	Overcommit  float64 // region size as a multiple of physical frames
	RegionPages int
	Accesses    int

	Faults        uint64 // hard faults (page not resident): the miss count
	SoftFaults    uint64
	Evictions     uint64
	SecondChances uint64
	Promotions    uint64
	Harvests      uint64

	FaultsPer1K float64       // hard faults per 1000 accesses (miss ratio x10)
	Sim         time.Duration // total simulated time of the access stream
	P50, P99    time.Duration // per-access simulated latency percentiles
	WallPerSec  float64       // wall-clock accesses/sec (regression tracking only)
}

// PressureConfig sizes one ablation run.
type PressureConfig struct {
	Frames   int // physical frames per run
	Accesses int // Zipf accesses per cell (scan bursts come on top)
	Seed     int64
}

// DefaultPressureConfig keeps a 3-level run in seconds of wall time.
var DefaultPressureConfig = PressureConfig{Frames: 256, Accesses: 20000, Seed: 1}

const (
	// One scan burst of pressureScanBurst sequential pages every
	// pressureScanEvery Zipf accesses: enough to flood a recency-only
	// order, sparse enough that the Zipf hot set dominates the stream.
	pressureScanEvery = 256
	pressureScanBurst = 128
	// Harvest cadence in accesses; stands in for the daemon's tick.
	pressureHarvestEvery = 128
)

// PressureAblation measures each overcommit level.
func PressureAblation(overcommits []float64, cfg PressureConfig) []PressurePoint {
	var pts []PressurePoint
	for _, oc := range overcommits {
		pts = append(pts, pressureRun(oc, cfg))
	}
	return pts
}

func pressureRun(overcommit float64, cfg PressureConfig) PressurePoint {
	clock := cost.New()
	swap := seg.NewSwapAllocator(8192, clock)
	defer mustClose(swap)
	p := core.New(core.Options{
		Frames:   cfg.Frames,
		Clock:    clock,
		SegAlloc: swap,
	})
	ctx, err := p.ContextCreate()
	if err != nil {
		panic(err)
	}
	ps := int64(p.PageSize())
	regionPages := int(float64(cfg.Frames) * overcommit)
	c := p.TempCacheCreate()
	if _, err := ctx.RegionCreate(benchBase, int64(regionPages)*ps, gmi.ProtRW, c, 0); err != nil {
		panic(err)
	}

	// Reclaim watermarks, scaled like the daemon's defaults.
	low, high := cfg.Frames/8, cfg.Frames/4
	reclaim := func() {
		if free := p.Memory().FreeFrames(); free < low {
			p.PageOut(high - free)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(regionPages-1))
	one := []byte{0xA5}
	access := func(page int, write bool) {
		reclaim()
		va := benchBase + gmi.VA(int64(page)*ps)
		if write {
			if err := ctx.Write(va, one); err != nil {
				panic(err)
			}
		} else if err := ctx.Read(va, one); err != nil {
			panic(err)
		}
	}

	// Warm the hot head so the measured interval is steady state, not
	// cold start.
	for i := 0; i < cfg.Frames/2; i++ {
		access(int(zipf.Uint64()), false)
	}

	before := p.Stats()
	simStart := clock.Snapshot()
	wallStart := time.Now()
	lats := make([]time.Duration, 0, cfg.Accesses)
	scanNext := 0
	for a := 0; a < cfg.Accesses; a++ {
		if a%pressureHarvestEvery == 0 {
			p.PolicyTick()
		}
		if a > 0 && a%pressureScanEvery == 0 {
			// Sequential single-use burst, cycling through the region.
			for i := 0; i < pressureScanBurst; i++ {
				access(scanNext, false)
				scanNext = (scanNext + 1) % regionPages
			}
		}
		pg := int(zipf.Uint64())
		s := clock.Snapshot()
		access(pg, a%4 == 0)
		lats = append(lats, clock.Since(s))
	}
	wall := time.Since(wallStart)
	sim := clock.Since(simStart)
	d := p.Stats().Delta(before)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return PressurePoint{
		Overcommit:    overcommit,
		RegionPages:   regionPages,
		Accesses:      cfg.Accesses,
		Faults:        d.Faults - d.SoftFaults,
		SoftFaults:    d.SoftFaults,
		Evictions:     d.Evictions,
		SecondChances: d.PolicySecondChances,
		Promotions:    d.PolicyPromotions,
		Harvests:      d.PolicyHarvests,
		FaultsPer1K:   float64(d.Faults-d.SoftFaults) * 1000 / float64(cfg.Accesses),
		Sim:           sim,
		P50:           lats[len(lats)/2],
		P99:           lats[len(lats)*99/100],
		WallPerSec:    float64(cfg.Accesses) / wall.Seconds(),
	}
}

// FormatPressure renders one row per overcommit level.
func FormatPressure(pts []PressurePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "2Q replacement (Zipf s=1.2 + scan bursts, synchronous reclaim)\n")
	fmt.Fprintf(&b, "%7s %7s %10s %10s %10s %9s %11s %11s\n",
		"region", "faults", "flts/1Kacc", "evictions", "2ndchance", "promos", "p50 sim", "p99 sim")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%6.1fx %7d %10.1f %10d %10d %9d %11s %11s\n",
			pt.Overcommit, pt.Faults, pt.FaultsPer1K,
			pt.Evictions, pt.SecondChances, pt.Promotions,
			fmtSim(pt.P50), fmtSim(pt.P99))
	}
	return b.String()
}

func fmtSim(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}
