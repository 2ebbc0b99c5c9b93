package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"chorusvm/internal/obs"
)

// Flate is a compressing backend: each materialized page is held as a
// DEFLATE blob (stdlib compress/flate) plus a checksum of the
// uncompressed content. It trades CPU on the read/write path for
// physical bytes — the zswap/zram trade — and tracks logical vs physical
// bytes so the ratio is observable. Every page returned is checked
// against its checksum, so an Engine over a bare Flate leaves the
// integrity check to it.
type Flate struct {
	ps    int64
	level int

	mu       sync.Mutex
	pages    map[int64][]byte // compressed page blobs
	crcs     map[int64]uint32 // crc32 of the uncompressed page
	physical int64            // total compressed bytes held
	closed   bool

	// tr observes compression/decompression time (nil-safe); set before
	// first use.
	tr *obs.Tracer
}

var _ Backend = (*Flate)(nil)

// NewFlate creates a compressing backend. Pages compress with
// flate.BestSpeed: the backend sits on the pullIn/pushOut path, where
// latency matters more than the last percent of ratio.
func NewFlate(pageSize int) *Flate {
	return &Flate{
		ps:    int64(pageSize),
		level: flate.BestSpeed,
		pages: make(map[int64][]byte),
		crcs:  make(map[int64]uint32),
	}
}

// SetTracer attaches an observability tracer (nil disables; call before
// the backend starts serving I/O).
func (z *Flate) SetTracer(t *obs.Tracer) { z.tr = t }

// PageSize implements Backend.
func (z *Flate) PageSize() int { return int(z.ps) }

// compressPage deflates one page; z.mu held (the blob map is being
// updated around it).
func (z *Flate) compressPage(pg []byte) ([]byte, error) {
	start := z.tr.Clock()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, z.level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(pg); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	z.tr.Span(obs.KindStoreCompress, obs.OpStoreCompress, int64(len(pg)), int64(b.Len()), start)
	return b.Bytes(), nil
}

// decompressPage inflates one page blob into dst and verifies the
// recorded checksum; a blob that fails to inflate or mismatches is
// ErrCorrupt.
func (z *Flate) decompressPage(po int64, blob []byte, dst []byte) error {
	start := z.tr.Clock()
	r := flate.NewReader(bytes.NewReader(blob))
	if _, err := io.ReadFull(r, dst); err != nil {
		return fmt.Errorf("inflate failed (%v): %w", err, corruptAt("flate", po))
	}
	r.Close()
	if crc32.ChecksumIEEE(dst) != z.crcs[po] {
		return corruptAt("flate", po)
	}
	z.tr.Span(obs.KindStoreCompress, obs.OpStoreCompress, int64(len(blob)), int64(len(dst)), start)
	return nil
}

// ReadAt implements Backend.
func (z *Flate) ReadAt(off int64, buf []byte) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	var scratch []byte // only a partial page needs one
	return forEachPage(z.ps, off, int64(len(buf)), func(po, b, bufOff, n int64) error {
		blob, ok := z.pages[po]
		if !ok {
			clear(buf[bufOff : bufOff+n])
			return nil
		}
		if n == z.ps {
			return z.decompressPage(po, blob, buf[bufOff:bufOff+n])
		}
		if scratch == nil {
			scratch = make([]byte, z.ps)
		}
		if err := z.decompressPage(po, blob, scratch); err != nil {
			return err
		}
		copy(buf[bufOff:bufOff+n], scratch[b:b+n])
		return nil
	})
}

// WriteAt implements Backend.
func (z *Flate) WriteAt(off int64, data []byte) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	scratch := make([]byte, z.ps)
	return forEachPage(z.ps, off, int64(len(data)), func(po, b, bufOff, n int64) error {
		// Partial pages read-modify-write through the existing blob.
		if n < z.ps {
			if blob, ok := z.pages[po]; ok {
				if err := z.decompressPage(po, blob, scratch); err != nil {
					return err
				}
			} else {
				clear(scratch)
			}
		}
		copy(scratch[b:b+n], data[bufOff:bufOff+n])
		blob, err := z.compressPage(scratch)
		if err != nil {
			return err
		}
		if old, ok := z.pages[po]; ok {
			z.physical -= int64(len(old))
		}
		z.pages[po] = blob
		z.crcs[po] = crc32.ChecksumIEEE(scratch)
		z.physical += int64(len(blob))
		return nil
	})
}

// Truncate implements Backend.
func (z *Flate) Truncate(size int64) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	for po, blob := range z.pages {
		if po >= size {
			z.physical -= int64(len(blob))
			delete(z.pages, po)
			delete(z.crcs, po)
		}
	}
	return nil
}

// Sync implements Backend.
func (z *Flate) Sync() error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	return nil
}

// Pages implements Backend.
func (z *Flate) Pages() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return len(z.pages)
}

// Close implements Backend.
func (z *Flate) Close() error {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.closed = true
	z.pages, z.crcs, z.physical = nil, nil, 0
	return nil
}

// BytesLogical returns the uncompressed size of the held pages.
func (z *Flate) BytesLogical() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return int64(len(z.pages)) * z.ps
}

// BytesPhysical returns the compressed bytes actually held.
func (z *Flate) BytesPhysical() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.physical
}
