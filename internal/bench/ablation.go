package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/nucleus"
)

// This file implements the ablation benchmarks DESIGN.md section 5 calls
// out: the design choices the paper argues for, measured.

// CrossoverPoint holds one copy-size measurement for both deferred-copy
// techniques.
type CrossoverPoint struct {
	Pages       int
	HistorySim  time.Duration // per copy, history-object technique
	PerPageSim  time.Duration // per copy, per-virtual-page stubs
	HistoryWall time.Duration
	PerPageWall time.Duration
}

// DeferredCopyCrossover measures a copy of n pages followed by writing
// touch of them in the destination, under each technique — the rationale
// for the PVM having both (section 4.3): per-page stubs avoid the eager
// protection sweep for small copies; history objects avoid per-page stub
// installation for big ones.
func DeferredCopyCrossover(sizes []int, touch func(pages int) int, iters int) []CrossoverPoint {
	out := make([]CrossoverPoint, 0, len(sizes))
	for _, n := range sizes {
		var pt CrossoverPoint
		pt.Pages = n
		for _, tech := range []struct {
			small int
			sim   *time.Duration
			wall  *time.Duration
		}{
			{small: -1, sim: &pt.HistorySim, wall: &pt.HistoryWall},
			{small: 1 << 20, sim: &pt.PerPageSim, wall: &pt.PerPageWall},
		} {
			mm, clock, done := PVM(core.Options{Frames: 4096, SmallCopyPages: tech.small})()
			ctx, _ := mm.ContextCreate()
			ps := int64(mm.PageSize())
			size := int64(n) * ps
			src := mm.TempCacheCreate()
			if _, err := ctx.RegionCreate(benchBase, size, gmi.ProtRW, src, 0); err != nil {
				panic(err)
			}
			for i := 0; i < n; i++ {
				if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), []byte{1}); err != nil {
					panic(err)
				}
			}
			dbase := benchBase + gmi.VA(2*size) + 0x100_0000
			k := touch(n)
			run := func() {
				dst := mm.TempCacheCreate()
				if err := src.Copy(dst, 0, 0, size); err != nil {
					panic(err)
				}
				r, err := ctx.RegionCreate(dbase, size, gmi.ProtRW, dst, 0)
				if err != nil {
					panic(err)
				}
				for i := 0; i < k; i++ {
					if err := ctx.Write(dbase+gmi.VA(int64(i)*ps), []byte{2}); err != nil {
						panic(err)
					}
				}
				if err := r.Destroy(); err != nil {
					panic(err)
				}
				if err := dst.Destroy(); err != nil {
					panic(err)
				}
			}
			run()
			snap := clock.Snapshot()
			start := time.Now()
			for i := 0; i < iters; i++ {
				run()
			}
			*tech.wall = time.Since(start) / time.Duration(iters)
			*tech.sim = clock.Since(snap) / time.Duration(iters)
			done()
		}
		out = append(out, pt)
	}
	return out
}

// FormatCrossover renders the crossover table.
func FormatCrossover(pts []CrossoverPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "deferred-copy technique crossover (copy n pages, dirty 1)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %10s\n", "pages", "history", "per-page", "winner")
	for _, p := range pts {
		w := "history"
		if p.PerPageSim < p.HistorySim {
			w = "per-page"
		}
		fmt.Fprintf(&b, "%8d %11.3f ms %11.3f ms %10s\n",
			p.Pages,
			float64(p.HistorySim)/float64(time.Millisecond),
			float64(p.PerPageSim)/float64(time.Millisecond), w)
	}
	return b.String()
}

// ExecCacheResult compares program loading with segment caching on vs off
// (the section 5.1.3 claim: "very significant impact ... such as occurs
// during a large make").
type ExecCacheResult struct {
	WarmSim, ColdSim   time.Duration // per exec
	WarmWall, ColdWall time.Duration
	Hits, Misses       uint64
}

// ExecSegmentCache measures repeated map-read-unmap of one "text segment"
// through the segment manager, warm vs cold.
func ExecSegmentCache(textPages, execs int) ExecCacheResult {
	var res ExecCacheResult
	for _, warm := range []bool{true, false} {
		clock := cost.New()
		site := nucleus.NewSite(clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
			return core.New(core.Options{Frames: 2048, Clock: clock, SegAlloc: sa})
		})
		if !warm {
			site.SegMgr.SetCacheLimit(0)
		}
		m := nucleus.NewMapper(site, "fs")
		cap := m.CreateSegment()
		text := make([]byte, textPages*site.MM.PageSize())
		for i := range text {
			text[i] = byte(i)
		}
		if err := m.Preload(cap, 0, text); err != nil {
			panic(err)
		}
		ps := int64(site.MM.PageSize())

		exec := func() {
			a, err := site.NewActor()
			if err != nil {
				panic(err)
			}
			if _, err := a.RgnMap(benchBase, int64(textPages)*ps, gmi.ProtRX, cap, 0); err != nil {
				panic(err)
			}
			// "Run" the program: read every text page.
			one := make([]byte, 1)
			for i := 0; i < textPages; i++ {
				if err := a.Ctx.Read(benchBase+gmi.VA(int64(i)*ps), one); err != nil {
					panic(err)
				}
			}
			if err := a.Destroy(); err != nil {
				panic(err)
			}
		}
		exec()
		snap := clock.Snapshot()
		start := time.Now()
		for i := 0; i < execs; i++ {
			exec()
		}
		wall := time.Since(start) / time.Duration(execs)
		sim := clock.Since(snap) / time.Duration(execs)
		if warm {
			res.WarmSim, res.WarmWall = sim, wall
			res.Hits, _ = site.SegMgr.Stats()
		} else {
			res.ColdSim, res.ColdWall = sim, wall
			_, res.Misses = site.SegMgr.Stats()
		}
		site.Close()
	}
	return res
}

// Format renders the exec comparison.
func (r ExecCacheResult) Format() string {
	return fmt.Sprintf(
		"exec segment caching (per exec of a text segment)\n"+
			"  warm (cache kept):    %8.3f ms   (%d cache hits)\n"+
			"  cold (cache dropped): %8.3f ms   (%d misses)\n"+
			"  speedup: %.1fx\n",
		float64(r.WarmSim)/float64(time.Millisecond), r.Hits,
		float64(r.ColdSim)/float64(time.Millisecond), r.Misses,
		float64(r.ColdSim)/float64(r.WarmSim))
}

// CollapseResult compares fork-exit chains with and without the
// working-object collapse GC (section 4.2.5's extension).
type CollapseResult struct {
	OnSim, OffSim     time.Duration // total for the whole chain
	OnCaches          int           // live cache descriptors at the end
	OffCaches         int
	OnPushes, OffPush uint64
}

// HistoryCollapse runs the pattern the paper flags as pathological for the
// destination side: a process forks, exits while its child continues,
// which forks and exits, and so on.
func HistoryCollapse(pages, generations int) CollapseResult {
	var res CollapseResult
	for _, collapse := range []bool{true, false} {
		mm, clock, done := PVM(core.Options{Frames: 4096, SmallCopyPages: -1, DisableCollapse: !collapse})()
		pvm := mm.(*core.PVM)
		ctx, _ := mm.ContextCreate()
		ps := int64(mm.PageSize())
		size := int64(pages) * ps

		cur := mm.TempCacheCreate()
		r, err := ctx.RegionCreate(benchBase, size, gmi.ProtRW, cur, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < pages; i++ {
			if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), []byte{1}); err != nil {
				panic(err)
			}
		}
		snap := clock.Snapshot()
		for g := 0; g < generations; g++ {
			// Fork: the child is a deferred copy of the current image.
			child := mm.TempCacheCreate()
			if err := cur.Copy(child, 0, 0, size); err != nil {
				panic(err)
			}
			// The child dirties one page, then the parent exits and the
			// child continues (remap the working region to the child).
			if err := r.Destroy(); err != nil {
				panic(err)
			}
			if err := cur.Destroy(); err != nil {
				panic(err)
			}
			r, err = ctx.RegionCreate(benchBase, size, gmi.ProtRW, child, 0)
			if err != nil {
				panic(err)
			}
			if err := ctx.Write(benchBase+gmi.VA(int64(g%pages)*ps), []byte{byte(g)}); err != nil {
				panic(err)
			}
			cur = child
		}
		sim := clock.Since(snap)
		if collapse {
			res.OnSim = sim
			res.OnCaches = pvm.CacheCount()
			res.OnPushes = pvm.Stats().HistoryPushes
		} else {
			res.OffSim = sim
			res.OffCaches = pvm.CacheCount()
			res.OffPush = pvm.Stats().HistoryPushes
		}
		done()
	}
	return res
}

// Format renders the collapse comparison.
func (r CollapseResult) Format() string {
	return fmt.Sprintf(
		"history-chain growth under fork-exit chains\n"+
			"  collapse on:  %8.3f ms total, %4d caches alive at end\n"+
			"  collapse off: %8.3f ms total, %4d caches alive at end\n",
		float64(r.OnSim)/float64(time.Millisecond), r.OnCaches,
		float64(r.OffSim)/float64(time.Millisecond), r.OffCaches)
}

// MMUResult is one MMU flavour's simulated time for the zero-fill
// workload.
type MMUResult struct {
	Name string
	Sim  time.Duration
}

// MMUPortability runs the same machine-independent PVM over each simulated
// MMU flavour — the paper's portability claim (one PVM, many MMUs).
func MMUPortability(regionPages, touchPages, iters int) []MMUResult {
	var out []MMUResult
	for _, name := range []string{"sun3", "pmmu", "i386"} {
		f := PVM(core.Options{Frames: 2048, MMU: name})
		res := ZeroFill(f, regionPages, touchPages, iters)
		out = append(out, MMUResult{Name: name, Sim: res.Sim})
	}
	return out
}

// FormatMMU renders the portability comparison.
func FormatMMU(rs []MMUResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "one PVM over three MMU flavours (zero-fill workload)\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-6s %8.3f ms simulated\n",
			r.Name, float64(r.Sim)/float64(time.Millisecond))
	}
	return b.String()
}
