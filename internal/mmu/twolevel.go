package mmu

import (
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Two-level tree MMU, in the style of the Sun-3 segment/page maps: a root
// table of pointers to leaf tables of PTEs. Sparse address spaces cost one
// root slot per 2^leafBits pages actually used.

const (
	leafBits = 10
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
	rootSize = 1 << 12 // supports 2^(12+10) pages: 32 GB of VA at 8 KB pages
)

// TwoLevel is the Sun-3-style MMU flavour.
type TwoLevel struct {
	geometry
}

// NewTwoLevel creates the flavour with the given page size.
func NewTwoLevel(pageSize int, clock *cost.Clock) *TwoLevel {
	return &TwoLevel{geometry: newGeometry("sun3", pageSize, clock)}
}

// NewSpace implements MMU.
func (m *TwoLevel) NewSpace() Space { return &twoLevelSpace{geo: m.geometry} }

type twoLevelSpace struct {
	geo    geometry
	root   [rootSize]*[leafSize]pte
	mapped int
}

func (s *twoLevelSpace) slotVPN(vpn uint64, create bool) *pte {
	ri := vpn >> leafBits
	if ri >= rootSize {
		return nil
	}
	leaf := s.root[ri]
	if leaf == nil {
		if !create {
			return nil
		}
		leaf = new([leafSize]pte)
		s.root[ri] = leaf
	}
	return &leaf[vpn&leafMask]
}

func (s *twoLevelSpace) slot(va gmi.VA, create bool) *pte {
	return s.slotVPN(s.geo.vpn(va), create)
}

func (s *twoLevelSpace) Map(va gmi.VA, f *phys.Frame, p gmi.Prot) {
	e := s.slot(va, true)
	if e == nil {
		panic("mmu: va outside two-level root coverage")
	}
	if e.frame == nil {
		s.mapped++
	}
	e.frame, e.prot = f, p
	s.geo.clock.Charge(cost.EvPageMap, 1)
}

func (s *twoLevelSpace) Unmap(va gmi.VA) {
	if e := s.slot(va, false); e != nil && e.frame != nil {
		e.frame, e.prot = nil, 0
		s.mapped--
		s.geo.clock.Charge(cost.EvPageUnmap, 1)
	}
}

func (s *twoLevelSpace) Protect(va gmi.VA, p gmi.Prot) {
	if e := s.slot(va, false); e != nil && e.frame != nil {
		e.prot = p
		s.geo.clock.Charge(cost.EvPageProtect, 1)
	}
}

func (s *twoLevelSpace) Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error) {
	e := s.slot(va, false)
	if e == nil || e.frame == nil {
		return nil, &Fault{VA: va, Access: access, Kind: FaultInvalid}
	}
	if err := e.check(va, access, system); err != nil {
		return nil, err
	}
	e.ref = true
	if access&gmi.ProtWrite != 0 {
		e.dirty = true
	}
	return e.frame, nil
}

func (s *twoLevelSpace) HarvestReferenced(va gmi.VA, npages int, visit func(int, bool)) {
	vpn := s.geo.vpn(va)
	cleared := 0
	for i := 0; i < npages; i++ {
		if e := s.slotVPN(vpn+uint64(i), false); e != nil && e.frame != nil && e.ref {
			if visit != nil {
				visit(i, e.dirty)
			}
			e.ref, e.dirty = false, false
			cleared++
		}
	}
	if cleared > 0 {
		s.geo.clock.Charge(cost.EvPageProtect, cleared)
	}
}

func (s *twoLevelSpace) Lookup(va gmi.VA) (*phys.Frame, gmi.Prot, bool) {
	e := s.slot(va, false)
	if e == nil || e.frame == nil {
		return nil, 0, false
	}
	return e.frame, e.prot, true
}

func (s *twoLevelSpace) InvalidateRange(va gmi.VA, npages int) {
	for i := 0; i < npages; i++ {
		if e := s.slot(va+gmi.VA(i<<s.geo.shift), false); e != nil && e.frame != nil {
			e.frame, e.prot = nil, 0
			s.mapped--
		}
	}
	s.geo.clock.Charge(cost.EvPageInvalidate, npages)
}

// setPTE implements ptes.
func (s *twoLevelSpace) setPTE(vpn uint64, e pte) {
	slot := s.slotVPN(vpn, true)
	if slot == nil {
		panic("mmu: va outside two-level root coverage")
	}
	if slot.frame == nil {
		s.mapped++
	}
	*slot = e
}

// getPTE implements ptes.
func (s *twoLevelSpace) getPTE(vpn uint64) (pte, bool) {
	if slot := s.slotVPN(vpn, false); slot != nil && slot.frame != nil {
		return *slot, true
	}
	return pte{}, false
}

func (s *twoLevelSpace) MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	mapBatch(s, &s.geo, va, frames, p)
}

func (s *twoLevelSpace) ProtectRange(va gmi.VA, npages int, p gmi.Prot) {
	protectRange(s, &s.geo, va, npages, p)
}

func (s *twoLevelSpace) Mapped() int { return s.mapped }

func (s *twoLevelSpace) Destroy() {
	for i := range s.root {
		s.root[i] = nil
	}
	s.mapped = 0
}
