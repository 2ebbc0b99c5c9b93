package mmu

import (
	"testing"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Conformance tests for the referenced/modified PTE bits and
// HarvestReferenced, run against every flavour.

// harvest collects one HarvestReferenced sweep as maps of page index to
// dirtiness.
func harvest(s Space, va gmi.VA, npages int) map[int]bool {
	got := map[int]bool{}
	s.HarvestReferenced(va, npages, func(i int, dirty bool) { got[i] = dirty })
	return got
}

func TestHarvestReferenced(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	for _, m := range flavours(clock) {
		t.Run(m.Name(), func(t *testing.T) {
			s := m.NewSpace()
			defer s.Destroy()
			var frames []*phys.Frame
			for i := 0; i < 4; i++ {
				f, _ := mem.Alloc()
				frames = append(frames, f)
				defer mem.Free(f)
				s.Map(gmi.VA(i*pg), f, gmi.ProtRW)
			}

			// A fresh mapping is unreferenced until translated through.
			if got := harvest(s, 0, 4); len(got) != 0 {
				t.Fatalf("fresh mappings report referenced: %v", got)
			}

			// Read sets the referenced bit, write also the modified bit.
			if _, err := s.Translate(gmi.VA(0*pg), gmi.ProtRead, false); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Translate(gmi.VA(2*pg), gmi.ProtWrite, false); err != nil {
				t.Fatal(err)
			}
			got := harvest(s, 0, 4)
			want := map[int]bool{0: false, 2: true}
			if len(got) != len(want) || got[0] != want[0] || got[2] != want[2] {
				t.Fatalf("harvest = %v, want %v", got, want)
			}

			// The harvest cleared the bits: an immediate re-harvest is empty,
			// and a fresh reference sets them again.
			if got := harvest(s, 0, 4); len(got) != 0 {
				t.Fatalf("second harvest not empty: %v", got)
			}
			if _, err := s.Translate(gmi.VA(2*pg), gmi.ProtRead, false); err != nil {
				t.Fatal(err)
			}
			got = harvest(s, 0, 4)
			if len(got) != 1 || got[2] != false {
				t.Fatalf("post-harvest re-reference: harvest = %v, want page 2 clean", got)
			}

			// A failed translation sets nothing.
			s.Protect(gmi.VA(1*pg), gmi.ProtRead)
			if _, err := s.Translate(gmi.VA(1*pg), gmi.ProtWrite, false); err == nil {
				t.Fatal("write through read-only translation succeeded")
			}
			if got := harvest(s, 0, 4); len(got) != 0 {
				t.Fatalf("faulting reference set bits: %v", got)
			}
		})
	}
}

// TestHarvestLargeRunGranularity: a run mapped by one MapBatch at an
// aligned VA keeps one bit pair per base page. A touch on one page
// reports that page alone, a write dirties only the written page, and a
// harvest clears each pair independently.
func TestHarvestLargeRunGranularity(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	for _, m := range flavours(clock) {
		t.Run(m.Name(), func(t *testing.T) {
			s := m.NewSpace()
			defer s.Destroy()
			run := make([]*phys.Frame, 4)
			for i := range run {
				f, err := mem.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				run[i] = f
				defer mem.Free(f)
			}
			va := gmi.VA(0) // vpn 0, aligned for any run width
			s.MapBatch(va, run, gmi.ProtRW)
			if got := harvest(s, va, 4); len(got) != 0 {
				t.Fatalf("fresh run reports referenced: %v", got)
			}

			if _, err := s.Translate(va+gmi.VA(3*pg), gmi.ProtWrite, false); err != nil {
				t.Fatal(err)
			}
			got := harvest(s, va, 4)
			if len(got) != 1 || !got[3] {
				t.Fatalf("write to page 3: harvest = %v, want only page 3 dirty", got)
			}
			if got := harvest(s, va, 4); len(got) != 0 {
				t.Fatalf("page 3 pair not cleared: %v", got)
			}

			// A read elsewhere in the run sets that page's bit alone and
			// leaves it clean.
			if _, err := s.Translate(va, gmi.ProtRead, false); err != nil {
				t.Fatal(err)
			}
			got = harvest(s, va, 4)
			if len(got) != 1 || got[0] {
				t.Fatalf("read of page 0: harvest = %v, want only page 0, clean", got)
			}
		})
	}
}
