package phys

import (
	"sync"
	"sync/atomic"
	"testing"

	"chorusvm/internal/cost"
)

// listed walks the free list and checks it against the free flags and
// FreeFrames. Only meaningful at quiescence.
func listed(t *testing.T, m *Memory) int {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for f := m.freeHead; f != nil; f = f.next {
		if !f.free {
			t.Fatalf("frame %d on the free list but not marked free", f.Index)
		}
		n++
	}
	marked := 0
	for i := range m.frames {
		if m.frames[i].free {
			marked++
		}
	}
	if n != marked || n != m.FreeFrames() {
		t.Fatalf("free list holds %d frames, %d marked free, FreeFrames %d", n, marked, m.FreeFrames())
	}
	return n
}

// TestConcurrentMixReturnsEveryFrame has 8 goroutines mix Alloc,
// AllocZeroed, Free and FreeBatch, then checks at quiescence that every
// frame is back on the one free list exactly once. Run with -race.
func TestConcurrentMixReturnsEveryFrame(t *testing.T) {
	const frames = 256
	m := NewMemory(frames, 4096, cost.New())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			held := make([]*Frame, 0, 16)
			for i := 0; i < 2000; i++ {
				switch op := (i + seed) % 6; {
				case op < 4 && len(held) < 16:
					alloc := m.Alloc
					if op%2 == 1 {
						alloc = m.AllocZeroed
					}
					f, err := alloc()
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, f)
				case op == 4 && len(held) > 0:
					m.Free(held[len(held)-1])
					held = held[:len(held)-1]
				case len(held) > 0:
					m.FreeBatch(held)
					held = held[:0]
				}
			}
			m.FreeBatch(held)
		}(w)
	}
	wg.Wait()
	if m.FreeFrames() != m.TotalFrames() {
		t.Fatalf("leaked frames: %d free of %d", m.FreeFrames(), m.TotalFrames())
	}
	if n := listed(t, m); n != frames {
		t.Fatalf("free list holds %d of %d frames", n, frames)
	}
	if m.BatchFrees() == 0 {
		t.Fatal("no FreeBatch of more than one frame ran")
	}
}

// TestFreeBatch returns frames wholesale and checks counters, accounting
// and the double-free panic on the batched path.
func TestFreeBatch(t *testing.T) {
	clock := cost.New()
	m := NewMemory(16, 4096, clock)
	var fs []*Frame
	for i := 0; i < 10; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	m.FreeBatch(fs)
	if m.FreeFrames() != 16 {
		t.Fatalf("after batch free: %d free", m.FreeFrames())
	}
	if n := m.BatchFrees(); n != 1 {
		t.Fatalf("BatchFrees = %d, want 1", n)
	}
	if clock.Count(cost.EvFrameFree) != 10 {
		t.Fatalf("EvFrameFree charged %d, want 10", clock.Count(cost.EvFrameFree))
	}
	if n := listed(t, m); n != 16 {
		t.Fatalf("free list holds %d frames after batch", n)
	}
	g, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free through FreeBatch did not panic")
		}
		// g went back before the panic; the list and count agree.
		if n := listed(t, m); n != 16 {
			t.Fatalf("free list holds %d frames after the panic", n)
		}
	}()
	m.FreeBatch([]*Frame{g, fs[0]})
}

// TestFreeBatchOfOne: a one-frame batch is an ordinary Free and counts
// no batch, so a reclaim pass of one victim frees exactly as a single
// drop does.
func TestFreeBatchOfOne(t *testing.T) {
	clock := cost.New()
	m := NewMemory(16, 4096, clock)
	f, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	m.FreeBatch([]*Frame{f})
	if n := m.BatchFrees(); n != 0 {
		t.Fatalf("BatchFrees = %d, want 0", n)
	}
	if m.FreeFrames() != 16 || clock.Count(cost.EvFrameFree) != 1 {
		t.Fatalf("free %d, EvFrameFree %d; want 16, 1", m.FreeFrames(), clock.Count(cost.EvFrameFree))
	}
	m.FreeBatch(nil) // no-op
}

// TestAllocZeroedStaleBytes is the stale-bytes regression: frames
// scribbled on by a previous owner must come out of AllocZeroed all-zero,
// every time, with a second goroutine dirtying and freeing frames
// concurrently (run under -race).
func TestAllocZeroedStaleBytes(t *testing.T) {
	m := NewMemory(32, 4096, cost.New())
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn worker: dirty frames and free them back
		defer wg.Done()
		for !stop.Load() {
			f, err := m.Alloc()
			if err != nil {
				continue
			}
			for i := range f.Data {
				f.Data[i] = 0xAB
			}
			m.Free(f)
		}
	}()

	for i := 0; i < 500; i++ {
		f, err := m.AllocZeroed()
		if err != nil {
			t.Fatal(err)
		}
		for j, b := range f.Data {
			if b != 0 {
				t.Fatalf("iteration %d: stale byte %#02x at offset %d of frame %d", i, b, j, f.Index)
			}
		}
		f.Data[0] = 0xCD
		m.Free(f)
	}
	stop.Store(true)
	wg.Wait()
}

// TestAllocZeroedFallback: AllocZeroed behaves exactly like Alloc+Zero,
// with one frame-alloc and one bzero charge.
func TestAllocZeroedFallback(t *testing.T) {
	clock := cost.New()
	m := NewMemory(4, 4096, clock)
	f, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f.Data[7] = 0xEE
	m.Free(f)
	f, err = m.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Data {
		if b != 0 {
			t.Fatal("AllocZeroed returned a dirty frame")
		}
	}
	if clock.Count(cost.EvFrameAlloc) != 2 || clock.Count(cost.EvBzeroPage) != 1 {
		t.Fatalf("charged %d allocs, %d bzeros; want 2, 1",
			clock.Count(cost.EvFrameAlloc), clock.Count(cost.EvBzeroPage))
	}
	m.Free(f)
}
