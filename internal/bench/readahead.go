package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// ReadAheadPoint is one cluster-size measurement for the sequential-read
// workload.
type ReadAheadPoint struct {
	Cluster int
	Sim     time.Duration // per full sequential scan
	Faults  uint64
	Seeks   uint64
}

// ReadAhead measures a sequential scan of a segment-backed region under
// different pullIn cluster sizes: clustering trades a little read-ahead
// waste for far fewer faults and disk positionings.
func ReadAhead(clusters []int, filePages, iters int) []ReadAheadPoint {
	out := make([]ReadAheadPoint, 0, len(clusters))
	for _, cl := range clusters {
		clock := cost.New()
		swap := seg.NewSwapAllocator(8192, clock)
		mm := core.New(core.Options{
			Frames: filePages * 2, PageSize: 8192, Clock: clock,
			SegAlloc:       swap,
			ReadAheadPages: cl,
		})
		sg := seg.NewSegment("file", mm.PageSize(), clock)
		content := make([]byte, filePages*mm.PageSize())
		for i := range content {
			content[i] = byte(i)
		}
		sg.Store().WriteAt(0, content)

		ctx, err := mm.ContextCreate()
		if err != nil {
			panic(err)
		}
		ps := int64(mm.PageSize())
		size := int64(filePages) * ps
		c := mm.CacheCreate(sg)
		if _, err := ctx.RegionCreate(benchBase, size, gmi.ProtRead, c, 0); err != nil {
			panic(err)
		}

		scan := func() {
			one := make([]byte, 1)
			for o := int64(0); o < size; o += ps {
				if err := ctx.Read(benchBase+gmi.VA(o), one); err != nil {
					panic(err)
				}
			}
			// Drop everything so the next scan faults again.
			if err := c.Invalidate(0, size); err != nil {
				panic(err)
			}
		}
		scan()
		snap := clock.Snapshot()
		for i := 0; i < iters; i++ {
			scan()
		}
		out = append(out, ReadAheadPoint{
			Cluster: cl,
			Sim:     clock.Since(snap) / time.Duration(iters),
			Faults:  clock.CountSince(snap, cost.EvFault) / uint64(iters),
			Seeks:   clock.CountSince(snap, cost.EvDiskSeek) / uint64(iters),
		})
		mustClose(swap)
	}
	return out
}

// FormatReadAhead renders the cluster comparison.
func FormatReadAhead(pts []ReadAheadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pullIn clustering: sequential scan, per-scan cost\n")
	fmt.Fprintf(&b, "%10s %14s %10s %10s\n", "cluster", "simulated", "faults", "seeks")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %11.3f ms %10d %10d\n",
			p.Cluster, float64(p.Sim)/float64(time.Millisecond), p.Faults, p.Seeks)
	}
	return b.String()
}
