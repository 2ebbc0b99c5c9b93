package mmu

import (
	"testing"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Conformance tests for the extent operations — MapBatch and
// ProtectRange — run against every flavour.

func TestMapBatch(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	for _, m := range flavours(clock) {
		t.Run(m.Name(), func(t *testing.T) {
			s := m.NewSpace()
			defer s.Destroy()
			frames := make([]*phys.Frame, 4)
			for i := range frames {
				frames[i], _ = mem.Alloc()
				defer mem.Free(frames[i])
			}
			va := gmi.VA(0x40000)
			s.MapBatch(va, frames, gmi.ProtRW)
			if s.Mapped() != 4 {
				t.Fatalf("mapped = %d after MapBatch of 4", s.Mapped())
			}
			for i, f := range frames {
				got, err := s.Translate(va+gmi.VA(i*pg), gmi.ProtWrite, false)
				if err != nil || got != f {
					t.Fatalf("page %d: translate = %v, %v; want %v", i, got, err, f)
				}
			}
			// Batching over existing translations replaces them, exactly
			// like per-page Map.
			repl, _ := mem.Alloc()
			defer mem.Free(repl)
			s.MapBatch(va+pg, []*phys.Frame{repl}, gmi.ProtRead)
			if got, _ := s.Translate(va+pg, gmi.ProtRead, false); got != repl {
				t.Fatalf("replacement translate = %v, want %v", got, repl)
			}
			if _, err := s.Translate(va+pg, gmi.ProtWrite, false); err == nil {
				t.Fatal("stale write rights survived MapBatch replacement")
			}
			if s.Mapped() != 4 {
				t.Fatalf("mapped = %d after replacement", s.Mapped())
			}
		})
	}
}

func TestProtectRange(t *testing.T) {
	clock := cost.New()
	mem := phys.NewMemory(64, pg, clock)
	for _, m := range flavours(clock) {
		t.Run(m.Name(), func(t *testing.T) {
			s := m.NewSpace()
			defer s.Destroy()
			frames := make([]*phys.Frame, 4)
			for i := range frames {
				frames[i], _ = mem.Alloc()
				defer mem.Free(frames[i])
			}
			va := gmi.VA(0x80000)
			s.MapBatch(va, frames, gmi.ProtRW)
			// Every page is writable before the range update.
			for i := range frames {
				if _, err := s.Translate(va+gmi.VA(i*pg), gmi.ProtWrite, false); err != nil {
					t.Fatalf("warm translate: %v", err)
				}
			}
			// The range covers two mapped pages and one hole beyond the
			// batch: holes stay unmapped rather than materializing.
			s.ProtectRange(va+pg, 4, gmi.ProtRead)
			if _, err := s.Translate(va, gmi.ProtWrite, false); err != nil {
				t.Fatalf("page before range lost write access: %v", err)
			}
			for i := 1; i < 4; i++ {
				if _, err := s.Translate(va+gmi.VA(i*pg), gmi.ProtWrite, false); err == nil {
					t.Fatalf("page %d still writable after ProtectRange", i)
				}
				if got, err := s.Translate(va+gmi.VA(i*pg), gmi.ProtRead, false); err != nil || got != frames[i] {
					t.Fatalf("page %d read after ProtectRange: %v, %v", i, got, err)
				}
			}
			if _, err := s.Translate(va+4*pg, gmi.ProtRead, false); err == nil {
				t.Fatal("ProtectRange materialized a translation in a hole")
			}
			if s.Mapped() != 4 {
				t.Fatalf("mapped = %d after ProtectRange", s.Mapped())
			}
		})
	}
}
