// Distshare: the unified-cache demonstration (section 3.2). One segment is
// mapped concurrently by two actors and simultaneously accessed by
// explicit read/write — all through one local cache, so the dual-caching
// problem cannot arise and each page is pulled from the mapper exactly
// once. The second act shows a mapper exercising the cache-control
// operations (setProtection, sync, invalidate) the way a distributed
// coherent virtual memory would (section 3.3.3).
//
// Run: go run ./examples/distshare
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/nucleus"
)

const (
	pageSize = 8192
	base     = gmi.VA(0x40000)
	pages    = 8
)

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
		return core.New(core.Options{Frames: 1024, PageSize: pageSize, Clock: clock, SegAlloc: sa})
	})
	defer site.Close()

	// A mapper-held segment with recognizable content.
	files := nucleus.NewMapper(site, "files")
	capa := files.CreateSegment()
	content := make([]byte, pages*pageSize)
	for i := range content {
		content[i] = byte('A' + i/pageSize)
	}
	if err := files.Preload(capa, 0, content); err != nil {
		return fail(err)
	}

	// Two actors map the same segment; the segment manager hands both
	// the same local cache.
	a1, err := site.NewActor()
	if err != nil {
		return fail(err)
	}
	a2, err := site.NewActor()
	if err != nil {
		return fail(err)
	}
	if _, err := a1.RgnMap(base, pages*pageSize, gmi.ProtRW, capa, 0); err != nil {
		return fail(err)
	}
	if _, err := a2.RgnMap(base, pages*pageSize, gmi.ProtRW, capa, 0); err != nil {
		return fail(err)
	}

	// Both touch every page; explicit access reads the same cache.
	buf := make([]byte, pages*pageSize)
	if err := a1.Ctx.Read(base, buf); err != nil {
		return fail(err)
	}
	if err := a2.Ctx.Read(base, buf); err != nil {
		return fail(err)
	}
	cache, err := site.SegMgr.Acquire(capa)
	if err != nil {
		return fail(err)
	}
	if err := cache.ReadAt(0, buf[:16]); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "two mappings + explicit access, first bytes: %q\n", buf[:8])
	fmt.Fprintf(w, "pages resident: %d — pulled exactly once each despite three readers\n",
		cache.Resident())

	// Actor 1 writes; actor 2 sees it immediately (same cache, same
	// frames).
	if err := a1.Ctx.Write(base+pageSize, []byte("written by actor 1")); err != nil {
		return fail(err)
	}
	check := make([]byte, 18)
	if err := a2.Ctx.Read(base+pageSize, check); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "actor 2 reads actor 1's write: %q\n", check)

	// A coherence-minded mapper revokes write access and syncs the page
	// home, then invalidates; the next access faults it back in.
	if err := cache.SetProtection(pageSize, pageSize, gmi.ProtRead); err != nil {
		return fail(err)
	}
	if err := cache.Sync(pageSize, pageSize); err != nil {
		return fail(err)
	}
	if err := cache.Invalidate(pageSize, pageSize); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "after revoke+sync+invalidate: resident=%d\n", cache.Resident())
	if err := a2.Ctx.Read(base+pageSize, check); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "refetched from mapper: %q\n", check)
	site.SegMgr.Release(capa)

	fmt.Fprintf(w, "\nsimulated time: %v\n", clock.Elapsed())
	return 0
}
