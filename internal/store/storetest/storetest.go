// Package storetest exports the cross-backend conformance battery for
// store.Backend implementations. Every backend — the built-ins, the
// tiered composition, the remote client — must pass the same table, so
// a new backend starts by calling Run from its own test file:
//
//	func TestConformance(t *testing.T) {
//		storetest.Run(t, func(t *testing.T, ps int) store.Backend { ... })
//	}
//
// Persistent backends additionally call RunReopen, which proves content
// survives Close and a fresh open over the same state.
package storetest

import (
	"bytes"
	"errors"
	"testing"

	"chorusvm/internal/store"
)

// PageSize is the page size the battery runs at: small enough that the
// boundary cases stay readable, large enough to be page-like.
const PageSize = 256

// Maker builds one fresh backend for a subtest. Cleanup (Close) is the
// battery's job; temp state should hang off t.TempDir.
type Maker func(t *testing.T, pageSize int) store.Backend

// Pattern fills n bytes with a tag-derived deterministic pattern —
// distinct tags give distinct, non-trivial page content.
func Pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

// Run drives the full conformance battery against backends built by mk.
func Run(t *testing.T, mk Maker) {
	t.Run("ZeroFill", func(t *testing.T) { testZeroFill(t, mk(t, PageSize)) })
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, mk(t, PageSize)) })
	t.Run("Boundaries", func(t *testing.T) { testBoundaries(t, mk(t, PageSize)) })
	t.Run("Truncate", func(t *testing.T) { testTruncate(t, mk(t, PageSize)) })
	t.Run("SyncAndClose", func(t *testing.T) { testSyncAndClose(t, mk(t, PageSize)) })
	t.Run("Sparse", func(t *testing.T) { testSparse(t, mk(t, PageSize)) })
	t.Run("Engine", func(t *testing.T) { testEngine(t, mk(t, PageSize)) })
}

// RunReopen proves close/reopen persistence: content written through one
// backend instance must be readable through a second instance opened
// over the same durable state. open is called at least twice; each call
// must return a backend over the same underlying store.
func RunReopen(t *testing.T, open func(t *testing.T) store.Backend) {
	b := open(t)
	want := Pattern(0x5A, 3*PageSize)
	if err := b.WriteAt(int64(PageSize/2), want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// A hole below, content above: both must survive.
	if err := b.WriteAt(int64(10*PageSize), Pattern(0x77, PageSize)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	b = open(t)
	defer b.Close()
	got := make([]byte, len(want))
	if err := b.ReadAt(int64(PageSize/2), got); err != nil {
		t.Fatalf("ReadAt after reopen: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("content did not survive reopen")
	}
	got = make([]byte, PageSize)
	if err := b.ReadAt(int64(10*PageSize), got); err != nil {
		t.Fatalf("ReadAt after reopen: %v", err)
	}
	if !bytes.Equal(got, Pattern(0x77, PageSize)) {
		t.Fatalf("sparse page did not survive reopen")
	}
	hole := make([]byte, PageSize)
	if err := b.ReadAt(int64(5*PageSize), hole); err != nil {
		t.Fatalf("ReadAt hole after reopen: %v", err)
	}
	for i, v := range hole {
		if v != 0 {
			t.Fatalf("hole byte %d: got %#x, want 0 after reopen", i, v)
		}
	}
}

func testZeroFill(t *testing.T, b store.Backend) {
	defer b.Close()
	buf := Pattern(0xFF, 3*PageSize)
	if err := b.ReadAt(100, buf); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("byte %d: got %#x, want 0 (never-written range)", i, v)
		}
	}
	if b.Pages() != 0 {
		t.Fatalf("Pages() = %d after pure reads, want 0", b.Pages())
	}
}

func testRoundTrip(t *testing.T, b store.Backend) {
	defer b.Close()
	want := Pattern(0x11, 4*PageSize)
	if err := b.WriteAt(0, want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := b.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch")
	}
	if b.Pages() != 4 {
		t.Fatalf("Pages() = %d, want 4", b.Pages())
	}
}

// testBoundaries drives the partial-page and page-straddling paths:
// sub-page writes at both edges of a page, a write covering a page tail
// plus the next page's head, and reads at the same odd offsets,
// interleaved with full-page content to detect neighbour clobbering.
func testBoundaries(t *testing.T, b store.Backend) {
	defer b.Close()
	// Model of the backend's logical content.
	model := make([]byte, 6*PageSize)
	write := func(off int64, data []byte) {
		t.Helper()
		if err := b.WriteAt(off, data); err != nil {
			t.Fatalf("WriteAt(%d, %d bytes): %v", off, len(data), err)
		}
		copy(model[off:], data)
	}
	check := func(off int64, n int) {
		t.Helper()
		got := make([]byte, n)
		if err := b.ReadAt(off, got); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, model[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d, %d): content mismatch", off, n)
		}
	}

	write(0, Pattern(0x21, 2*PageSize))                          // two full pages as a baseline
	write(10, Pattern(0x42, 17))                                 // interior partial write
	write(PageSize-5, Pattern(0x33, 10))                         // straddles pages 0/1
	write(2*PageSize-3, Pattern(0x44, PageSize+6))               // tail + full page 2 + head of 3
	write(int64(4*PageSize+PageSize/2), Pattern(0x55, PageSize)) // straddle into a hole

	check(0, 6*PageSize)          // everything
	check(3, 40)                  // interior partial read
	check(PageSize-8, 16)         // straddling read
	check(2*PageSize-1, 2)        // 1 byte each side of a boundary
	check(5*PageSize-1, PageSize) // read ending in the hole's zero region

	// A one-byte write must not disturb its neighbours.
	write(3*PageSize+7, []byte{0xAB})
	check(3*PageSize, PageSize)
}

func testTruncate(t *testing.T, b store.Backend) {
	defer b.Close()
	if err := b.WriteAt(0, Pattern(0x61, 4*PageSize)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := b.Truncate(2 * PageSize); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if b.Pages() != 2 {
		t.Fatalf("Pages() = %d after Truncate(2p), want 2", b.Pages())
	}
	got := make([]byte, 4*PageSize)
	if err := b.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	want := Pattern(0x61, 4*PageSize)
	clear(want[2*PageSize:])
	if !bytes.Equal(got, want) {
		t.Fatalf("post-truncate content mismatch")
	}
	if err := b.Truncate(0); err != nil {
		t.Fatalf("Truncate(0): %v", err)
	}
	if b.Pages() != 0 {
		t.Fatalf("Pages() = %d after Truncate(0), want 0", b.Pages())
	}
}

func testSyncAndClose(t *testing.T, b store.Backend) {
	if err := b.WriteAt(0, Pattern(1, PageSize)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.ReadAt(0, make([]byte, 1)); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("ReadAt after Close = %v, want ErrClosed", err)
	}
}

// testSparse writes pages far apart, checking sparse segments stay cheap
// (Pages counts materialized pages, not the address range).
func testSparse(t *testing.T, b store.Backend) {
	defer b.Close()
	offs := []int64{0, 1 << 20, 1 << 30, 1<<40 + PageSize}
	for i, off := range offs {
		if err := b.WriteAt(off, Pattern(byte(i+1), PageSize)); err != nil {
			t.Fatalf("WriteAt(%#x): %v", off, err)
		}
	}
	if b.Pages() != len(offs) {
		t.Fatalf("Pages() = %d, want %d", b.Pages(), len(offs))
	}
	for i, off := range offs {
		got := make([]byte, PageSize)
		if err := b.ReadAt(off, got); err != nil {
			t.Fatalf("ReadAt(%#x): %v", off, err)
		}
		if !bytes.Equal(got, Pattern(byte(i+1), PageSize)) {
			t.Fatalf("content mismatch at %#x", off)
		}
	}
}

// testEngine runs the boundary table through an Engine wrapped around
// the backend, so the async path proves coherence (pending writeback
// must be visible to reads) on every backend.
func testEngine(t *testing.T, b store.Backend) {
	e := store.NewEngine(b, store.Options{})
	defer e.Close()
	model := make([]byte, 6*PageSize)
	write := func(off int64, data []byte) {
		t.Helper()
		if err := e.Write(off, data); err != nil {
			t.Fatalf("Write(%d): %v", off, err)
		}
		copy(model[off:], data)
	}
	check := func(off int64, n int) {
		t.Helper()
		got := make([]byte, n)
		if err := e.Read(off, got); err != nil {
			t.Fatalf("Read(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, model[off:off+int64(n)]) {
			t.Fatalf("Read(%d, %d): content mismatch", off, n)
		}
	}
	write(0, Pattern(0x21, 2*PageSize))
	check(0, 2*PageSize) // read races writeback: queue must serve it
	write(10, Pattern(0x42, 17))
	write(PageSize-5, Pattern(0x33, 10))
	write(2*PageSize-3, Pattern(0x44, PageSize+6))
	check(0, 4*PageSize)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	check(0, 4*PageSize) // and the backend must hold it after drain
	if got := b.Pages(); got != 4 {
		t.Fatalf("backend Pages() = %d after Flush, want 4", got)
	}

	// An unaligned read from the drained backend: a partial head, two
	// full pages read straight into the caller's buffer, a partial tail.
	off, n := int64(PageSize-100), 2*PageSize+200
	before := e.StatsSnapshot()
	check(off, n)
	if d := e.StatsSnapshot().Delta(before); d.QueueHits != 0 {
		t.Fatalf("unaligned read served from memory (%+v), want the backend", d)
	}

	// Rewrite the middle, full page behind the engine's back: the direct
	// read must be checked against the engine's recorded checksum. A
	// bare File or Flate checks its pages itself (their own tests cover
	// it), so the engine records none and serves what the backend holds.
	evil := append([]byte(nil), model[PageSize:2*PageSize]...)
	evil[17] ^= 0xFF
	if err := b.WriteAt(PageSize, evil); err != nil {
		t.Fatalf("backend WriteAt: %v", err)
	}
	got := make([]byte, n)
	err := e.Read(off, got)
	switch b.(type) {
	case *store.File, *store.Flate:
		if err != nil || !bytes.Equal(got[100:100+PageSize], evil) {
			t.Fatalf("Read over a page rewritten in a self-checking backend = %v, want its new bytes", err)
		}
	default:
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Read over a corrupted full page = %v, want ErrCorrupt", err)
		}
	}
}
