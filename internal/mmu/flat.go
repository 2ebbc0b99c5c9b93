package mmu

import (
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Flat-map MMU, the simplest flavour ("i386" in the spirit of the paper's
// AT/386 port): one per-space map from virtual page number to PTE. It is
// the reference implementation the other flavours are differentially
// tested against.

// Flat is the map-based MMU flavour.
type Flat struct {
	geometry
}

// NewFlat creates the flavour with the given page size.
func NewFlat(pageSize int, clock *cost.Clock) *Flat {
	return &Flat{geometry: newGeometry("i386", pageSize, clock)}
}

// NewSpace implements MMU.
func (m *Flat) NewSpace() Space {
	return &flatSpace{geo: m.geometry, ptes: make(map[uint64]pte)}
}

type flatSpace struct {
	geo  geometry
	ptes map[uint64]pte // nil once destroyed
}

// setPTE implements ptes.
func (s *flatSpace) setPTE(vpn uint64, e pte) {
	if s.ptes == nil {
		panic(errDestroyedMap)
	}
	s.ptes[vpn] = e
}

// getPTE implements ptes.
func (s *flatSpace) getPTE(vpn uint64) (pte, bool) { e, ok := s.ptes[vpn]; return e, ok }

func (s *flatSpace) Map(va gmi.VA, f *phys.Frame, p gmi.Prot) {
	s.setPTE(s.geo.vpn(va), pte{frame: f, prot: p})
	s.geo.clock.Charge(cost.EvPageMap, 1)
}

func (s *flatSpace) Unmap(va gmi.VA) {
	vpn := s.geo.vpn(va)
	if _, ok := s.ptes[vpn]; ok {
		delete(s.ptes, vpn)
		s.geo.clock.Charge(cost.EvPageUnmap, 1)
	}
}

func (s *flatSpace) Protect(va gmi.VA, p gmi.Prot) {
	vpn := s.geo.vpn(va)
	if e, ok := s.ptes[vpn]; ok {
		e.prot = p
		s.ptes[vpn] = e
		s.geo.clock.Charge(cost.EvPageProtect, 1)
	}
}

func (s *flatSpace) Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error) {
	vpn := s.geo.vpn(va)
	write := access&gmi.ProtWrite != 0
	e, ok := s.ptes[vpn]
	if !ok {
		return nil, &Fault{VA: va, Access: access, Kind: FaultInvalid}
	}
	if err := e.check(va, access, system); err != nil {
		return nil, err
	}
	// Map values are not addressable; write back only when a bit actually
	// flips so the steady state stays one lookup.
	if !e.ref || (write && !e.dirty) {
		e.ref = true
		if write {
			e.dirty = true
		}
		s.ptes[vpn] = e
	}
	return e.frame, nil
}

func (s *flatSpace) HarvestReferenced(va gmi.VA, npages int, visit func(int, bool)) {
	vpn := s.geo.vpn(va)
	cleared := 0
	for i := 0; i < npages; i++ {
		e, ok := s.ptes[vpn+uint64(i)]
		if !ok || !e.ref {
			continue
		}
		if visit != nil {
			visit(i, e.dirty)
		}
		e.ref, e.dirty = false, false
		s.ptes[vpn+uint64(i)] = e
		cleared++
	}
	if cleared > 0 {
		s.geo.clock.Charge(cost.EvPageProtect, cleared)
	}
}

func (s *flatSpace) Lookup(va gmi.VA) (*phys.Frame, gmi.Prot, bool) {
	e, ok := s.ptes[s.geo.vpn(va)]
	if !ok {
		return nil, 0, false
	}
	return e.frame, e.prot, true
}

func (s *flatSpace) InvalidateRange(va gmi.VA, npages int) {
	for i := 0; i < npages; i++ {
		delete(s.ptes, s.geo.vpn(va+gmi.VA(i<<s.geo.shift)))
	}
	s.geo.clock.Charge(cost.EvPageInvalidate, npages)
}

func (s *flatSpace) MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	mapBatch(s, &s.geo, va, frames, p)
}

func (s *flatSpace) ProtectRange(va gmi.VA, npages int, p gmi.Prot) {
	protectRange(s, &s.geo, va, npages, p)
}

func (s *flatSpace) Mapped() int { return len(s.ptes) }

func (s *flatSpace) Destroy() { s.ptes = nil }
