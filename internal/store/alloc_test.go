package store

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
)

// The page-in path reads each backend-served full page once, straight
// into the caller's buffer: no per-call scratch page and no extra copy.
// These pins hold that at the allocator: a full-page read at a written
// offset makes no allocation of its own.

func TestFileFullPageIOAllocatesNothing(t *testing.T) {
	f, err := NewFile(filepath.Join(t.TempDir(), "seg"), psTest)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	defer f.Close()
	if err := f.WriteAt(psTest, pattern(1, psTest)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf := make([]byte, psTest)
	if n := testing.AllocsPerRun(100, func() {
		if err := f.ReadAt(psTest, buf); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}); n != 0 {
		t.Errorf("File.ReadAt of a full page: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.WriteAt(psTest, buf); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}); n != 0 {
		t.Errorf("File.WriteAt of a full page: %v allocations, want 0", n)
	}
}

func TestEngineFullPageReadAllocatesNothing(t *testing.T) {
	for _, bc := range []struct {
		name string
		mk   func(t *testing.T) Backend
	}{
		{"mem", func(t *testing.T) Backend { return NewMem(psTest) }},
		{"file", func(t *testing.T) Backend {
			f, err := NewFile(filepath.Join(t.TempDir(), "seg"), psTest)
			if err != nil {
				t.Fatalf("NewFile: %v", err)
			}
			return f
		}},
	} {
		t.Run(bc.name, func(t *testing.T) {
			// The queue drained: every read below is served by the
			// backend, not by a queued copy.
			e := NewEngine(bc.mk(t), Options{})
			defer e.Close()
			if err := e.Write(psTest, pattern(2, psTest)); err != nil {
				t.Fatalf("Write: %v", err)
			}
			e.Barrier()
			buf := make([]byte, psTest)
			if n := testing.AllocsPerRun(100, func() {
				if err := e.Read(psTest, buf); err != nil {
					t.Fatalf("Read: %v", err)
				}
			}); n != 0 {
				t.Errorf("Engine.Read of a full page: %v allocations, want 0", n)
			}
			if st := e.StatsSnapshot(); st.QueueHits != 0 {
				t.Fatalf("reads served from memory (%+v), want the backend", st)
			}
		})
	}
}

// TestFlateFullPageReadSkipsScratch compares a full-page read with a
// one-byte read of the same page: both inflate the blob, but only the
// partial read needs a scratch page to inflate into.
func TestFlateFullPageReadSkipsScratch(t *testing.T) {
	z := NewFlate(psTest)
	defer z.Close()
	if err := z.WriteAt(0, pattern(3, psTest)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf := make([]byte, psTest)
	full := testing.AllocsPerRun(50, func() {
		if err := z.ReadAt(0, buf); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	})
	partial := testing.AllocsPerRun(50, func() {
		if err := z.ReadAt(1, buf[:1]); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	})
	if full >= partial {
		t.Errorf("Flate.ReadAt: full page %v allocations, one byte %v; want the full page to need fewer", full, partial)
	}
}

// TestEngineReadAsyncIntoCallerPages: an async read lands in the pages
// the caller handed over — the pager's destination frames — so the
// engine allocates no page buffer per request. Bytes are counted (not
// allocations: queueing the request and running its completion allocate
// small bookkeeping), with pages large enough that one stray page-sized
// buffer per request would dominate.
func TestEngineReadAsyncIntoCallerPages(t *testing.T) {
	const ps, pages = 8192, 4
	e := NewEngine(NewMem(ps), Options{})
	defer e.Close()
	want := pattern(4, pages*ps)
	if err := e.Write(0, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	e.Barrier()
	dst := make([][]byte, pages)
	for i := range dst {
		dst[i] = make([]byte, ps)
	}
	done := make(chan error, 1)
	read := func() {
		e.ReadAsync(0, dst, func(err error) { done <- err })
		if err := <-done; err != nil {
			t.Fatalf("ReadAsync: %v", err)
		}
	}
	read()
	for i, d := range dst {
		if !bytes.Equal(d, want[i*ps:(i+1)*ps]) {
			t.Fatalf("page %d read wrong bytes", i)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= ps {
		t.Errorf("Engine.ReadAsync of %d pages into caller pages: %d bytes allocated per request, want less than one %d-byte page", pages, per, ps)
	}
}
