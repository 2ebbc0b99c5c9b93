package mmu

import (
	"fmt"
	"sync"
	"testing"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Tests for the life cycle of a space: a destroyed space is dead in every
// flavour, and the sun3 flavour recycles its page tables at Destroy
// without letting a dead or a new space see the old translations.

// forkLayout is a MIX process's address space in miniature: text at
// 0x0040_0000, data at 0x1000_0000 and a stack below 0x7000_0000, each in
// a leaf of its own on the sun3 flavour (a leaf covers 8 MB at 8 KB pages).
var forkLayout = []struct {
	va     gmi.VA
	npages int
}{
	{0x0040_0000, 8},
	{0x1000_0000, 8},
	{0x7000_0000 - 4*pg, 4},
}

// forkPages is the number of pages forkLayout maps.
const forkPages = 20

// mapForkLayout maps frames over forkLayout: text and stack by MapBatch,
// data page by page.
func mapForkLayout(s Space, frames []*phys.Frame) {
	next := 0
	for i, r := range forkLayout {
		run := frames[next : next+r.npages]
		next += r.npages
		if i == 1 {
			for j, f := range run {
				s.Map(r.va+gmi.VA(j*pg), f, gmi.ProtRW)
			}
			continue
		}
		s.MapBatch(r.va, run, gmi.ProtRW)
	}
}

// spaceCycle is one fork's worth of MMU work: create a space, map the
// layout, tear its regions down, destroy it.
func spaceCycle(m MMU, frames []*phys.Frame) {
	s := m.NewSpace()
	mapForkLayout(s, frames)
	for _, r := range forkLayout {
		s.InvalidateRange(r.va, r.npages)
	}
	s.Destroy()
}

func allocFrames(t testing.TB, mem *phys.Memory, n int) []*phys.Frame {
	t.Helper()
	frames := make([]*phys.Frame, n)
	for i := range frames {
		f, err := mem.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// TestRecycleDestroyedSpaceIsDead destroys a space whose pages are still
// mapped, referenced and dirty, then creates a new one on the same MMU:
// the new space starts empty, and the old one panics on Map instead of
// writing into tables another space may now own.
func TestRecycleDestroyedSpaceIsDead(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	frames := allocFrames(t, mem, forkPages)
	var vas []gmi.VA
	for _, r := range forkLayout {
		for j := 0; j < r.npages; j++ {
			vas = append(vas, r.va+gmi.VA(j*pg))
		}
	}
	for _, m := range flavours(clock) {
		t.Run(m.Name(), func(t *testing.T) {
			old := m.NewSpace()
			mapForkLayout(old, frames)
			for i, va := range vas {
				access := gmi.ProtRead
				if i%2 == 1 {
					access = gmi.ProtWrite
				}
				if _, err := old.Translate(va, access, false); err != nil {
					t.Fatal(err)
				}
			}
			old.Destroy()

			s := m.NewSpace()
			defer s.Destroy()
			if n := s.Mapped(); n != 0 {
				t.Fatalf("new space Mapped() = %d, want 0", n)
			}
			for _, space := range []Space{s, old} {
				for _, va := range vas {
					if _, _, ok := space.Lookup(va); ok {
						t.Fatalf("Lookup(%#x) found a translation of the destroyed space", uint64(va))
					}
					_, err := space.Translate(va, gmi.ProtRead, false)
					if f, ok := err.(*Fault); !ok || f.Kind != FaultInvalid {
						t.Fatalf("Translate(%#x) = %v, want an invalid fault", uint64(va), err)
					}
				}
				for _, r := range forkLayout {
					if got := harvest(space, r.va, r.npages); len(got) != 0 {
						t.Fatalf("harvest at %#x visited %v", uint64(r.va), got)
					}
				}
			}

			// Mapping the same layout again gives fresh, unreferenced
			// translations the old space cannot see.
			mapForkLayout(s, frames)
			for _, r := range forkLayout {
				if got := harvest(s, r.va, r.npages); len(got) != 0 {
					t.Fatalf("fresh mapping at %#x reports referenced: %v", uint64(r.va), got)
				}
			}
			if _, _, ok := old.Lookup(vas[0]); ok {
				t.Fatal("destroyed space sees the new space's translation")
			}

			for name, op := range map[string]func(){
				"Map":      func() { old.Map(vas[0], frames[0], gmi.ProtRW) },
				"MapBatch": func() { old.MapBatch(vas[0], frames[:2], gmi.ProtRW) },
			} {
				if !panics(op) {
					t.Fatalf("%s on a destroyed space did not panic", name)
				}
			}
			if n := s.Mapped(); n != forkPages {
				t.Fatalf("new space Mapped() = %d after the dead space's maps, want %d", n, forkPages)
			}
		})
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRecycleAllocs: once one cycle has warmed the free list, a sun3 fork
// cycle allocates at most the space descriptor, and never a root or a
// leaf: the free list holds exactly the same tables after the runs.
func TestRecycleAllocs(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	frames := allocFrames(t, mem, forkPages)
	m := NewTwoLevel(pg, clock)
	spaceCycle(m, frames)
	roots, leaves := poolSets(m)
	if len(roots) != 1 || len(leaves) != len(forkLayout) {
		t.Fatalf("warm free list holds %d roots and %d leaves, want 1 and %d", len(roots), len(leaves), len(forkLayout))
	}
	if n := testing.AllocsPerRun(100, func() { spaceCycle(m, frames) }); n > 2 {
		t.Fatalf("a warm cycle allocates %v objects, want at most 2", n)
	}
	roots2, leaves2 := poolSets(m)
	for r := range roots2 {
		if !roots[r] {
			t.Fatal("a warm cycle allocated a new root")
		}
	}
	for l := range leaves2 {
		if !leaves[l] {
			t.Fatal("a warm cycle allocated a new leaf")
		}
	}
	if len(roots2) != len(roots) || len(leaves2) != len(leaves) {
		t.Fatalf("free list changed size: %d/%d roots, %d/%d leaves", len(roots2), len(roots), len(leaves2), len(leaves))
	}
}

func poolSets(m *TwoLevel) (map[*root]bool, map[*leaf]bool) {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	roots, leaves := map[*root]bool{}, map[*leaf]bool{}
	for _, r := range m.roots {
		roots[r] = true
	}
	for _, l := range m.leaves {
		leaves[l] = true
	}
	return roots, leaves
}

// TestRecycleConcurrentSpaces runs several goroutines, each creating,
// mapping, checking and destroying its own spaces on one shared sun3 MMU
// (as core's fast fault path creates leaves for two contexts at once).
// Every space must see only its own frames; run it under -race.
func TestRecycleConcurrentSpaces(t *testing.T) {
	const workers, rounds = 4, 50
	clock := cost.New()
	mem := phys.NewMemory(workers*forkPages, pg, clock)
	m := NewTwoLevel(pg, clock)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		frames := allocFrames(t, mem, forkPages)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := m.NewSpace()
				if n := s.Mapped(); n != 0 {
					errs <- fmt.Errorf("recycled space starts with %d translations", n)
					return
				}
				mapForkLayout(s, frames)
				next := 0
				for _, l := range forkLayout {
					for j := 0; j < l.npages; j++ {
						va := l.va + gmi.VA(j*pg)
						if f, err := s.Translate(va, gmi.ProtWrite, false); err != nil || f != frames[next] {
							errs <- fmt.Errorf("Translate(%#x) = %v, %v; want this worker's frame", uint64(va), f, err)
							return
						}
						next++
					}
				}
				// Tear down every other space's regions first, so
				// both the cleared and the uncleared return paths run.
				if r%2 == 0 {
					for _, l := range forkLayout {
						s.InvalidateRange(l.va, l.npages)
					}
				}
				s.Destroy()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	roots, leaves := poolSets(m)
	if len(roots) > workers || len(leaves) > workers*len(forkLayout) {
		t.Fatalf("free list holds %d roots and %d leaves, more than %d workers ever had live", len(roots), len(leaves), workers)
	}
}

// BenchmarkSpaceLifecycle measures one fork's worth of MMU work per
// flavour: NewSpace, map forkLayout across three sun3 leaves,
// InvalidateRange each region, Destroy.
func BenchmarkSpaceLifecycle(b *testing.B) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	frames := allocFrames(b, mem, forkPages)
	for _, m := range flavours(clock) {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spaceCycle(m, frames)
			}
		})
	}
}
