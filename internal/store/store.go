// Package store is the backing-store subsystem: the secondary-storage
// tier the paper assigns to mappers ("the segment representation is the
// mapper's business", section 3.1). Everything above it — segment
// managers in internal/seg, and through them both memory managers — sees
// only the page-granular Backend interface, so how pages are represented
// (a RAM map, a page file on disk, compressed blobs) is invisible to the
// VM layers, exactly the separation the paper draws between the memory
// manager and the external mappers that own real devices.
//
// The package provides:
//
//   - Backend: the narrow interface (ReadAt/WriteAt/Truncate/Sync/Pages).
//   - Mem, File, Flate: three implementations — the in-memory sparse page
//     map, a persistent page file with a free-extent slot allocator, and
//     a compressing store (compress/flate) tracking logical vs physical
//     bytes.
//   - Engine: an I/O layer over any Backend — synchronous page reads on
//     the caller, a bounded pool of long-lived workers that serves async
//     reads and coalesces adjacent writeback pages into batched
//     WriteAts, and one checksum verification per page read: the
//     engine's own, unless the backend checks its pages itself (File,
//     Flate). Corruption surfaces as ErrCorrupt, never as a silent wrong
//     byte.
//   - Faulty: a deterministic, seeded fault-injection wrapper (transient
//     errors and latency spikes) for exercising the retry paths.
//   - Policy: the bounded exponential retry/backoff the engine applies to
//     page reads and writeback.
package store

import (
	"errors"
	"fmt"
)

// Backend is a page-granular secondary-storage object. Offsets and
// lengths are byte counts; implementations accept arbitrary (unaligned,
// page-straddling) ranges and present never-written bytes as zero.
// All implementations in this package are safe for concurrent use.
type Backend interface {
	// PageSize returns the page size the backend allocates in.
	PageSize() int

	// ReadAt fills buf from [off, off+len(buf)), zero for holes. On
	// error the contents of buf are unspecified, as with io.ReaderAt.
	ReadAt(off int64, buf []byte) error

	// WriteAt stores data at [off, off+len(data)), materializing pages
	// as needed.
	WriteAt(off int64, data []byte) error

	// Truncate discards all pages at or beyond size (Truncate(0) frees
	// everything), releasing their storage.
	Truncate(size int64) error

	// Sync makes previously written data durable (a no-op for purely
	// in-memory backends).
	Sync() error

	// Pages returns how many distinct pages are materialized.
	Pages() int

	// Close releases the backend; for durable backends it implies Sync.
	Close() error
}

// Discarder is an optional Backend extension: dropping a single
// materialized page (Truncate can only drop suffixes). File implements
// it; nothing in the VM calls it, and it stays for the repository
// benchmark's backend wrapper (perfbench/wrap.go), which forwards it.
type Discarder interface {
	// DiscardPage releases the page at the page-aligned offset off; a
	// hole there is a no-op. Subsequent reads see zeroes.
	DiscardPage(off int64) error
}

// PageLister is an optional Backend extension: enumerating the
// materialized page offsets. File implements it; it stays for the
// repository benchmark's backend wrapper, which forwards it.
type PageLister interface {
	// PageOffsets returns the page-aligned offsets of every materialized
	// page, in ascending order.
	PageOffsets() []int64
}

// Advice classifies a usage hint to an advising backend (see Adviser).
// The VM sends none; the type stays for the repository benchmark's
// backend wrapper, which names it.
type Advice int

// Adviser is an optional Backend extension: receiving usage hints.
// No backend implements it and nothing in the VM calls it; it stays
// for the repository benchmark's backend wrapper, which forwards it.
type Adviser interface {
	Advise(off, size int64, a Advice)
}

// Errors of the storage tier. ErrTransient classifies failures worth
// retrying (see Policy); anything else is permanent and propagates up
// the upcall chain as a gmi.ErrIO.
var (
	// ErrCorrupt is returned when a page's content does not match its
	// recorded checksum: the read is refused rather than returning a
	// silently wrong byte.
	ErrCorrupt = errors.New("store: page checksum mismatch")

	// ErrTransient classifies injected or environmental failures that a
	// retry may clear; match with IsTransient / errors.Is.
	ErrTransient = errors.New("store: transient I/O failure")

	// ErrClosed flags use of a closed backend or engine.
	ErrClosed = errors.New("store: closed")
)

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// corruptAt builds the canonical ErrCorrupt for a page offset.
func corruptAt(what string, off int64) error {
	return fmt.Errorf("%s page at %#x: %w", what, off, ErrCorrupt)
}

// forEachPage chunks [off, off+n) into per-page pieces: fn receives the
// page-aligned page offset po, the intra-page byte offset b, and the
// chunk's position/length within the caller's buffer.
func forEachPage(pageSize, off, n int64, fn func(po, b, bufOff, length int64) error) error {
	for done := int64(0); done < n; {
		po := (off + done) &^ (pageSize - 1)
		b := off + done - po
		l := pageSize - b
		if rem := n - done; l > rem {
			l = rem
		}
		if err := fn(po, b, done, l); err != nil {
			return err
		}
		done += l
	}
	return nil
}
