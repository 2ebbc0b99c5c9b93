package phys

import (
	"testing"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

func TestAllocFreeCycle(t *testing.T) {
	clock := cost.New()
	m := NewMemory(4, 4096, clock)
	if m.FreeFrames() != 4 || m.TotalFrames() != 4 {
		t.Fatalf("fresh pool: %d/%d", m.FreeFrames(), m.TotalFrames())
	}
	var frames []*Frame
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.Index] {
			t.Fatalf("frame %d handed out twice", f.Index)
		}
		seen[f.Index] = true
		if len(f.Data) != 4096 {
			t.Fatalf("frame size %d", len(f.Data))
		}
		frames = append(frames, f)
	}
	if _, err := m.Alloc(); err != gmi.ErrNoMemory {
		t.Fatalf("exhausted pool: got %v", err)
	}
	if _, err := m.AllocZeroed(); err != gmi.ErrNoMemory {
		t.Fatalf("exhausted pool, zeroed: got %v", err)
	}
	for _, f := range frames {
		m.Free(f)
	}
	if m.FreeFrames() != 4 {
		t.Fatalf("after frees: %d free", m.FreeFrames())
	}
	if clock.Count(cost.EvFrameAlloc) != 4 || clock.Count(cost.EvFrameFree) != 4 {
		t.Fatal("alloc/free events not charged")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := NewMemory(2, 4096, cost.New())
	f, _ := m.Alloc()
	m.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free(f)
}

func TestZeroAndCopyCharge(t *testing.T) {
	clock := cost.New()
	m := NewMemory(2, 4096, clock)
	a, _ := m.Alloc()
	b, _ := m.Alloc()
	for i := range a.Data {
		a.Data[i] = byte(i)
	}
	m.CopyFrame(b, a)
	for i := range b.Data {
		if b.Data[i] != byte(i) {
			t.Fatal("copy mismatch")
		}
	}
	m.Zero(a)
	for _, x := range a.Data {
		if x != 0 {
			t.Fatal("zero failed")
		}
	}
	if clock.Count(cost.EvBcopyPage) != 1 || clock.Count(cost.EvBzeroPage) != 1 {
		t.Fatal("bcopy/bzero events not charged")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two page size accepted")
		}
	}()
	NewMemory(4, 3000, cost.New())
}
