// Backingstore: the mapper side of the GMI on real secondary storage.
// A segment lives in a page file on disk (crc-checked, surviving
// close/reopen), a second one in a compressing store, and a third
// behind a fault injector whose transient errors the retry layers
// absorb without the kernel ever noticing. See DESIGN.md §8.
//
// Run: go run ./examples/backingstore
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

const pageSize = 8192

func main() { os.Exit(run(os.Stdout)) }

// fail reports err on stderr and returns the exit status for run.
func fail(err error) int {
	log.Print(err)
	return 1
}

// run plays the example, writing its report to w; it returns the exit
// status.
func run(w io.Writer) int {
	dir, err := os.MkdirTemp("", "backingstore-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	// --- 1. A page file on disk that outlives its segment. ---
	path := filepath.Join(dir, "doc")
	f, err := store.NewFile(path, pageSize)
	if err != nil {
		return fail(err)
	}
	clock := cost.New()
	sg := seg.NewSegmentOn("doc", f, clock)
	msg := []byte("written through the kernel, durable on disk")
	if err := sg.Store().WriteAt(0, msg); err != nil {
		return fail(err)
	}
	if err := sg.Close(); err != nil { // flushes + writes the crc index
		return fail(err)
	}
	fi, _ := os.Stat(path + ".pages")
	fmt.Fprintf(w, "page file:      %s (%d bytes on disk)\n", filepath.Base(path)+".pages", fi.Size())

	// Reopen: the content comes back from disk, checksum-verified.
	f2, err := store.NewFile(path, pageSize)
	if err != nil {
		return fail(err)
	}
	sg2 := seg.NewSegmentOn("doc", f2, clock)
	buf := make([]byte, len(msg))
	if err := sg2.Store().ReadAt(0, buf); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "after reopen:   %q\n", buf)
	if !bytes.Equal(buf, msg) {
		return fail(errors.New("reopen lost data"))
	}
	if err := sg2.Close(); err != nil {
		return fail(err)
	}

	// --- 2. The same pages through the compressing store. ---
	fl := store.NewFlate(pageSize)
	sg3 := seg.NewSegmentOn("swapz", fl, clock)
	page := bytes.Repeat([]byte("swap pages compress well "), pageSize/25+1)[:pageSize]
	for i := int64(0); i < 8; i++ {
		if err := sg3.Store().WriteAt(i*pageSize, page); err != nil {
			return fail(err)
		}
	}
	if err := sg3.Store().Sync(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "flate store:    %d logical -> %d physical bytes (%.1fx)\n",
		fl.BytesLogical(), fl.BytesPhysical(),
		float64(fl.BytesLogical())/float64(fl.BytesPhysical()))
	if err := sg3.Close(); err != nil {
		return fail(err)
	}

	// --- 3. A faulty device under a live PVM: transient I/O errors are
	// retried below the GMI, so mapped memory stays exact. ---
	b, err := store.Config{Kind: "file", Dir: dir, FaultProb: 0.9, Seed: 42}.New("flaky", pageSize)
	if err != nil {
		return fail(err)
	}
	sg4 := seg.NewSegmentOn("flaky", b, clock)
	if err := sg4.Store().WriteAt(0, []byte("survives a flaky disk")); err != nil {
		return fail(err)
	}
	// Drain the writeback before the fault: the injector's seeded draws
	// then fall on the same operations in the same order on every run.
	if err := sg4.Store().Sync(); err != nil {
		return fail(err)
	}
	pvm := core.New(core.Options{Frames: 64, PageSize: pageSize, Clock: clock})
	cache := pvm.CacheCreate(sg4)
	ctx, err := pvm.ContextCreate()
	if err != nil {
		return fail(err)
	}
	const base = gmi.VA(0x10000)
	if _, err := ctx.RegionCreate(base, 4*pageSize, gmi.ProtRW, cache, 0); err != nil {
		return fail(err)
	}
	out := make([]byte, 21)
	if err := ctx.Read(base, out); err != nil { // faults -> pullIn -> flaky disk
		return fail(err)
	}
	fmt.Fprintf(w, "mapped read:    %q (store retries below the GMI: %d)\n", out, sg4.Retries())
	if err := sg4.Close(); err != nil {
		return fail(err)
	}
	return 0
}
