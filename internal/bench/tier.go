package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
	"chorusvm/internal/tier"
)

// Tier is the tiered-backing-store ablation: the same paging workload —
// a Zipf access stream over a region several times physical memory, with
// synchronous reclaim and periodic harvest ticks — measured against a
// flat in-memory store and against the tiered store in both placement
// modes. "tiered" lets the replacement policy drive migration (refaulted
// pages promote, evicted and idle pages sink); "static" pins pages to
// tiers by offset, the fixed split a partitioned swap device would give.
// The Zipf hot set is scattered across the region with a seeded
// permutation, so the static split cannot accidentally align with it:
// any cold-read advantage the policy-driven rows show is earned by
// migration, not by layout luck.

// TierPoint is one ablation row.
type TierPoint struct {
	Mode      string // flat, tiered or static
	HotPages  int    // hot-tier capacity (0 for flat)
	WarmPages int
	Accesses  int

	HardFaults uint64 // pull-ins from the backing store
	Evictions  uint64

	// Tier-instance counters (zero for flat).
	Promotions, Demotions          uint64
	HotReads, WarmReads, ColdReads uint64

	Sim        time.Duration // simulated time of the measured interval
	FaultsSec  float64       // wall-clock hard faults per second
	WallPerSec float64       // wall-clock accesses per second
}

// TierConfig sizes one ablation run.
type TierConfig struct {
	Frames      int // physical frames
	RegionPages int // region size in pages (several times Frames)
	Accesses    int // Zipf accesses per row
	Seed        int64
}

// DefaultTierConfig keeps the full ablation in seconds of wall time
// while still forcing steady eviction traffic (region 4x memory).
var DefaultTierConfig = TierConfig{Frames: 256, RegionPages: 1024, Accesses: 12000, Seed: 1}

const (
	tierHarvestEvery = 128 // accesses per harvest tick, like pressureRun
	tierDrainEvery   = 32  // accesses per advice drain: eviction notices
	// must reach the victim cache before the page refaults, so the
	// migrator runs at a finer grain than the harvest.
)

// TierAblation measures flat once, then the tiered store in both modes
// at each (hot, warm) capacity setting.
func TierAblation(settings [][2]int, cfg TierConfig) []TierPoint {
	pts := []TierPoint{tierRun("flat", 0, 0, cfg)}
	for _, s := range settings {
		pts = append(pts, tierRun("tiered", s[0], s[1], cfg))
		pts = append(pts, tierRun("static", s[0], s[1], cfg))
	}
	return pts
}

func tierRun(mode string, hot, warm int, cfg TierConfig) TierPoint {
	clock := cost.New()
	swap := seg.NewSwapAllocator(8192, clock)
	defer mustClose(swap)
	p := core.New(core.Options{
		Frames:   cfg.Frames,
		Clock:    clock,
		SegAlloc: swap,
	})
	ps := p.PageSize()

	var b store.Backend
	var tb *tier.Backend
	if mode == "flat" {
		b = store.NewMem(ps)
	} else {
		tb = tier.NewDefault(ps, tier.Options{
			HotPages:  hot,
			WarmPages: warm,
			Static:    mode == "static",
		})
		b = tb
	}
	sg := seg.NewSegmentOn("tier-bench", b, clock)
	c := p.CacheCreate(sg)

	ctx, err := p.ContextCreate()
	if err != nil {
		panic(err)
	}
	if _, err := ctx.RegionCreate(benchBase, int64(cfg.RegionPages)*int64(ps), gmi.ProtRW, c, 0); err != nil {
		panic(err)
	}

	low, high := cfg.Frames/8, cfg.Frames/4
	reclaim := func() {
		if free := p.Memory().FreeFrames(); free < low {
			p.PageOut(high - free)
			// Deterministic barrier: drain the queued push-outs before the
			// next access. A refault racing its own still-queued writeback
			// is served from the engine queue on some runs and from a tier
			// on others — VM-level counts stay identical either way, but
			// the per-tier read and migration counters would wobble by a
			// few ops run to run, and this ablation's artifact is exactly
			// those counters.
			if err := sg.Store().Sync(); err != nil {
				panic(err)
			}
		}
	}

	// Scatter the Zipf ranks across the region so rank 0 is not page 0:
	// a by-offset static split must not coincide with the hot set.
	rng := rand.New(rand.NewSource(cfg.Seed))
	scatter := rng.Perm(cfg.RegionPages)
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(cfg.RegionPages-1))
	one := []byte{0xA5}
	access := func(rank int, write bool) {
		reclaim()
		va := benchBase + gmi.VA(int64(scatter[rank])*int64(ps))
		if write {
			if err := ctx.Write(va, one); err != nil {
				panic(err)
			}
		} else if err := ctx.Read(va, one); err != nil {
			panic(err)
		}
	}

	// Populate the whole region so every page exists in the backing
	// store, then age the population out: the measured interval refaults
	// from the tiers, which is the behaviour under comparison.
	for pg := 0; pg < cfg.RegionPages; pg++ {
		access(pg, true)
	}
	p.PageOut(cfg.RegionPages)
	if err := sg.Store().Sync(); err != nil {
		panic(err)
	}
	if tb != nil {
		if err := tb.MigrateNow(); err != nil {
			panic(err)
		}
		tb.ResetStats()
	}

	before := p.Stats()
	simStart := clock.Snapshot()
	wallStart := time.Now()
	for a := 0; a < cfg.Accesses; a++ {
		if a%tierHarvestEvery == 0 {
			p.PolicyTick()
		}
		if tb != nil && a%tierDrainEvery == 0 {
			// The pageout daemon's migration step: drain queued advice.
			if err := tb.MigrateNow(); err != nil {
				panic(err)
			}
		}
		access(int(zipf.Uint64()), a%4 == 0)
	}
	// Push-outs ride the async engine; drain them so the counters below
	// cover the whole interval.
	if err := sg.Store().Sync(); err != nil {
		panic(err)
	}
	wall := time.Since(wallStart)
	sim := clock.Since(simStart)
	d := p.Stats().Delta(before)

	pt := TierPoint{
		Mode:       mode,
		HotPages:   hot,
		WarmPages:  warm,
		Accesses:   cfg.Accesses,
		HardFaults: d.Faults - d.SoftFaults,
		Evictions:  d.Evictions,
		Sim:        sim,
		FaultsSec:  float64(d.Faults-d.SoftFaults) / wall.Seconds(),
		WallPerSec: float64(cfg.Accesses) / wall.Seconds(),
	}
	if tb != nil {
		ts := tb.Stats()
		pt.Promotions = ts.Promotions
		pt.Demotions = ts.Demotions
		pt.HotReads = ts.HotReads
		pt.WarmReads = ts.WarmReads
		pt.ColdReads = ts.ColdReads
	}
	return pt
}

// FormatTier renders the ablation, one row per (mode, capacity) cell.
func FormatTier(pts []TierPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tiered-store ablation (Zipf s=1.2 over a scattered 4x-memory region, synchronous reclaim)\n")
	fmt.Fprintf(&b, "%7s %5s %5s %8s %8s %8s %8s %9s %9s %9s %12s\n",
		"mode", "hot", "warm", "faults", "promos", "demos", "hotrds", "warmrds", "coldrds", "sim", "faults/sec")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%7s %5d %5d %8d %8d %8d %8d %9d %9d %9s %12.0f\n",
			pt.Mode, pt.HotPages, pt.WarmPages, pt.HardFaults,
			pt.Promotions, pt.Demotions, pt.HotReads, pt.WarmReads, pt.ColdReads,
			fmtSim(pt.Sim), pt.FaultsSec)
	}
	return b.String()
}
