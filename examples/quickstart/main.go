// Quickstart: the paper's "basic services" (section 2) in fifty lines —
// create an address space, map a segment into a region, take page faults
// by touching memory, and watch the same cache serve explicit read/write.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

func main() {
	// A PVM over 8 MB of simulated memory (1024 frames of 8 KB), with a
	// swap allocator servicing segmentCreate upcalls.
	clock := cost.New()
	swap := seg.NewSwapAllocator(8192, clock)
	pvm := core.New(core.Options{
		Frames:   1024,
		PageSize: 8192,
		Clock:    clock,
		SegAlloc: swap,
	})

	// A segment (secondary-storage object) holding a greeting.
	files := seg.NewSegment("greeting", pvm.PageSize(), clock)
	files.Store().WriteAt(0, []byte("hello from the segment manager"))

	// Bind it to a local cache and map it into a fresh context.
	cache := pvm.CacheCreate(files)
	ctx, err := pvm.ContextCreate()
	if err != nil {
		log.Fatal(err)
	}
	const base = gmi.VA(0x10000)
	if _, err := ctx.RegionCreate(base, 4*8192, gmi.ProtRW, cache, 0); err != nil {
		log.Fatal(err)
	}

	// Touching the region faults the data in through a pullIn upcall.
	buf := make([]byte, 31)
	if err := ctx.Read(base, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped read:    %q\n", buf)

	// Mapped writes and explicit access share one cache — the paper's
	// answer to the dual-caching problem (section 3.2).
	if err := ctx.Write(base, []byte("HELLO")); err != nil {
		log.Fatal(err)
	}
	if err := cache.ReadAt(0, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explicit read:  %q   (sees the mapped write — one cache)\n", buf)

	// Push modified data home and show what moved.
	if err := cache.Sync(0, 4*8192); err != nil {
		log.Fatal(err)
	}
	files.Store().ReadAt(0, buf)
	fmt.Printf("segment store:  %q   (after sync)\n", buf)

	st := pvm.Stats()
	fmt.Printf("\nfaults=%d pullIns=%d pushOuts=%d zeroFills=%d\n",
		st.Faults, st.PullIns, st.PushOuts, st.ZeroFills)
	fmt.Printf("simulated time: %v (Sun-3/60-calibrated cost model)\n", clock.Elapsed())

	// The swap allocator owns the swap segments it made; closing it
	// stops their I/O workers.
	if err := swap.Close(); err != nil {
		log.Fatal(err)
	}
}
