package phys

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// TestMagazineCustodyInvariant hammers Alloc/Free from many goroutines
// and verifies, at quiescence, that every frame the allocator holds is
// accounted for exactly once across the levels and that FreeFrames
// agrees: depot + magazines + zeroPool == FreeFrames, and together with
// the frames still held by workers == TotalFrames.
func TestMagazineCustodyInvariant(t *testing.T) {
	const frames = 256
	m := NewMemory(frames, 4096, cost.New())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			held := make([]*Frame, 0, 16)
			for i := 0; i < 2000; i++ {
				if (i+seed)%3 != 0 && len(held) < 16 {
					f, err := m.Alloc()
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, f)
				} else if len(held) > 0 {
					f := held[len(held)-1]
					held = held[:len(held)-1]
					m.Free(f)
				}
			}
			for _, f := range held {
				m.Free(f)
			}
		}(w)
	}
	wg.Wait()
	depot, mags, zp := m.Custody()
	if got := depot + mags + zp; got != m.FreeFrames() {
		t.Fatalf("custody %d+%d+%d = %d, FreeFrames %d", depot, mags, zp, got, m.FreeFrames())
	}
	if m.FreeFrames() != frames {
		t.Fatalf("leaked frames: %d free of %d", m.FreeFrames(), frames)
	}
	free := 0
	for i := range m.frames {
		if atomic.LoadInt32(&m.frames[i].state) == frameFree {
			free++
		}
	}
	if free != frames {
		t.Fatalf("%d frames still marked allocated", frames-free)
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
	if st := m.AllocStats(); st.BatchFrees != 1 {
		t.Fatalf("BatchFrees = %d, want 1", st.BatchFrees)
	}
	if clock.Count(cost.EvFrameFree) != 10 {
		t.Fatalf("EvFrameFree charged %d, want 10", clock.Count(cost.EvFrameFree))
	}
	depot, mags, zp := m.Custody()
	if depot+mags+zp != 16 {
		t.Fatalf("custody %d+%d+%d after batch", depot, mags, zp)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free through FreeBatch did not panic")
		}
	}()
	m.FreeBatch(fs[:1])
}

// TestFreeBatchOfOne: a one-frame batch is an ordinary Free — it goes
// to a magazine, not the depot, and counts no batch transaction — so a
// reclaim pass of one victim frees exactly as a single drop does.
func TestFreeBatchOfOne(t *testing.T) {
	clock := cost.New()
	m := NewMemory(16, 4096, clock)
	f, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	depot0, mags0, _ := m.Custody()
	m.FreeBatch([]*Frame{f})
	depot, mags, _ := m.Custody()
	if depot != depot0 || mags != mags0+1 {
		t.Fatalf("custody depot %d->%d, magazines %d->%d; want the frame in a magazine",
			depot0, depot, mags0, mags)
	}
	if st := m.AllocStats(); st.BatchFrees != 0 {
		t.Fatalf("BatchFrees = %d, want 0", st.BatchFrees)
	}
	if m.FreeFrames() != 16 || clock.Count(cost.EvFrameFree) != 1 {
		t.Fatalf("free %d, EvFrameFree %d; want 16, 1", m.FreeFrames(), clock.Count(cost.EvFrameFree))
	}
	m.FreeBatch(nil) // no-op
}

// TestZeroerStaleBytes is the stale-bytes regression: frames scribbled on
// by a previous owner and recycled through the pre-zeroed pool must come
// out of AllocZeroed all-zero, every time, with alloc/free churn racing
// the zeroer (run under -race).
func TestZeroerStaleBytes(t *testing.T) {
	m := NewMemory(32, 4096, cost.New())
	stop := m.StartZeroer(8, 16)
	defer stop()
	waitFor(t, func() bool { return m.ZeroPoolSize() >= 8 })

	var churn atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn worker: dirty frames and free them back
		defer wg.Done()
		for !churn.Load() {
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
		f.Data[0] = 0xCD // dirty it so a pool leak would be visible
		m.Free(f)
	}
	churn.Store(true)
	wg.Wait()
	if st := m.AllocStats(); st.FramesZeroed == 0 {
		t.Fatal("zeroer never zeroed a frame")
	}
}

// TestZeroPoolHit verifies that a warmed pool serves AllocZeroed without
// a synchronous bzero charge, and that hits/misses are counted.
func TestZeroPoolHit(t *testing.T) {
	clock := cost.New()
	m := NewMemory(16, 4096, clock)
	stop := m.StartZeroer(4, 8)
	waitFor(t, func() bool { return m.ZeroPoolSize() >= 8 })
	stop()

	zeroed := clock.Count(cost.EvBzeroPage)
	f, err := m.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if clock.Count(cost.EvBzeroPage) != zeroed {
		t.Fatal("pool hit charged a synchronous bzero")
	}
	st := m.AllocStats()
	if st.ZeroPoolHits != 1 || st.ZeroPoolMisses != 0 {
		t.Fatalf("hits=%d misses=%d after a warm-pool alloc", st.ZeroPoolHits, st.ZeroPoolMisses)
	}
	m.Free(f)
}

// TestAllocZeroedFallback: with no zeroer running, AllocZeroed must
// behave exactly like Alloc+Zero and count a miss.
func TestAllocZeroedFallback(t *testing.T) {
	clock := cost.New()
	m := NewMemory(4, 4096, clock)
	f, err := m.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Data {
		if b != 0 {
			t.Fatal("fallback path returned a dirty frame")
		}
	}
	if clock.Count(cost.EvBzeroPage) != 1 {
		t.Fatalf("fallback charged %d bzeros, want 1", clock.Count(cost.EvBzeroPage))
	}
	st := m.AllocStats()
	if st.ZeroPoolHits != 0 || st.ZeroPoolMisses != 1 {
		t.Fatalf("hits=%d misses=%d without a zeroer", st.ZeroPoolHits, st.ZeroPoolMisses)
	}
	m.Free(f)
}

// TestAllocStealsZeroPool: a raw Alloc must be able to take pre-zeroed
// frames when everything else is dry — the pool never causes ErrNoMemory.
func TestAllocStealsZeroPool(t *testing.T) {
	m := NewMemory(8, 4096, cost.New())
	stop := m.StartZeroer(8, 8)
	waitFor(t, func() bool { return m.ZeroPoolSize() == 8 })
	stop()
	// Depot and magazines are now empty; all 8 frames sit pre-zeroed.
	var fs []*Frame
	for i := 0; i < 8; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatalf("alloc %d with a full zero pool: %v", i, err)
		}
		fs = append(fs, f)
	}
	if _, err := m.Alloc(); err != gmi.ErrNoMemory {
		t.Fatalf("exhausted: got %v", err)
	}
	for _, f := range fs {
		m.Free(f)
	}
}

// TestZeroerStartStopIdempotent covers the lifecycle: double start is a
// no-op, stop is idempotent, and the zeroer can be restarted.
func TestZeroerStartStopIdempotent(t *testing.T) {
	m := NewMemory(16, 4096, cost.New())
	stop1 := m.StartZeroer(2, 4)
	stop2 := m.StartZeroer(2, 4) // second start: no-op
	waitFor(t, func() bool { return m.ZeroPoolSize() >= 4 })
	stop2() // no-op stop must not kill the running zeroer
	z1 := m.AllocStats().FramesZeroed
	if z1 == 0 {
		t.Fatal("zeroer did no work")
	}
	stop1()
	stop1() // idempotent
	// Restart after stop.
	stop3 := m.StartZeroer(2, 8)
	waitFor(t, func() bool { return m.ZeroPoolSize() >= 8 })
	stop3()
	if got := m.AllocStats().FramesZeroed; got <= z1 {
		t.Fatalf("restarted zeroer did no work (%d then %d)", z1, got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
