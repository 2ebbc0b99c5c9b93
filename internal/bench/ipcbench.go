package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/ipc"
)

// IPCPoint compares one message size across transfer strategies: the
// page-aligned path (deferred copy into the transit slot, frame-retagging
// move out of it — section 5.1.6) versus the forced-bcopy path that
// unaligned bodies take.
type IPCPoint struct {
	Bytes       int
	DeferredSim time.Duration
	BcopySim    time.Duration
}

// IPCTransfer measures one send+receive round trip per strategy.
func IPCTransfer(sizes []int, iters int) []IPCPoint {
	out := make([]IPCPoint, 0, len(sizes))
	for _, size := range sizes {
		var pt IPCPoint
		pt.Bytes = size
		for _, unaligned := range []bool{false, true} {
			mm, clock, done := PVM(core.Options{Frames: 2048, SmallCopyPages: 64})()
			k := ipc.NewKernel(mm, clock, 8)
			port := k.AllocPort("bench")

			src := mm.TempCacheCreate()
			dst := mm.TempCacheCreate()
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			srcOff := int64(0)
			if unaligned {
				srcOff = 1 // defeats the aligned fast path: forced bcopy
			}
			if err := src.WriteAt(srcOff, payload); err != nil {
				panic(err)
			}
			run := func() {
				if err := port.Send(src, srcOff, int64(size), nil); err != nil {
					panic(err)
				}
				if _, _, err := port.Receive(dst, 0, ipc.MaxMessage); err != nil {
					panic(err)
				}
			}
			run()
			snap := clock.Snapshot()
			for i := 0; i < iters; i++ {
				run()
			}
			sim := clock.Since(snap) / time.Duration(iters)
			done()
			if unaligned {
				pt.BcopySim = sim
			} else {
				pt.DeferredSim = sim
			}
		}
		out = append(out, pt)
	}
	return out
}

// FormatIPC renders the IPC comparison.
func FormatIPC(pts []IPCPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPC transfer: transit-segment deferred copy vs bcopy (per round trip)\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "bytes", "aligned", "bcopy")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %11.3f ms %11.3f ms\n",
			p.Bytes,
			float64(p.DeferredSim)/float64(time.Millisecond),
			float64(p.BcopySim)/float64(time.Millisecond))
	}
	return b.String()
}
