package mmu

import (
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Inverted-table MMU in the style of the Motorola PMMU port of the paper
// (and of machines like the IBM RT): one hash table shared by all address
// spaces, keyed by (space id, virtual page number), with chained buckets.
// The table is sized relative to physical memory, which is exactly the
// paper's section 4.1 sizing rule.
//
// Because the table is shared, the flavour locks it itself: mu is a leaf
// mutex taken inside every invSpace method, under whatever lock the
// caller uses to serialize that one space (core's ctx.spaceMu), so
// distinct spaces may be used concurrently as the Space contract allows.
// Nothing is acquired while it is held, and HarvestReferenced's visit
// callback runs with it released.

// Inverted is the PMMU-style MMU flavour.
type Inverted struct {
	geometry
	mu      sync.Mutex // guards buckets and nextSID
	buckets []*invEntry
	mask    uint64
	nextSID uint32
}

type invEntry struct {
	sid  uint32
	vpn  uint64
	pte  pte
	next *invEntry
}

// NewInverted creates the flavour; buckets is the hash-table size (rounded
// up to a power of two, minimum 64).
func NewInverted(pageSize, buckets int, clock *cost.Clock) *Inverted {
	n := 64
	for n < buckets {
		n <<= 1
	}
	return &Inverted{
		geometry: newGeometry("pmmu", pageSize, clock),
		buckets:  make([]*invEntry, n),
		mask:     uint64(n - 1),
	}
}

// NewSpace implements MMU.
func (m *Inverted) NewSpace() Space {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextSID++
	return &invSpace{mmu: m, sid: m.nextSID}
}

func (m *Inverted) hash(sid uint32, vpn uint64) uint64 {
	h := vpn*0x9e3779b97f4a7c15 ^ uint64(sid)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & m.mask
}

type invSpace struct {
	mmu    *Inverted
	sid    uint32 // 0 once destroyed; live spaces number from 1
	mapped int
}

// find, setPTE and getPTE run with s.mmu.mu held.
func (s *invSpace) find(vpn uint64) **invEntry {
	pp := &s.mmu.buckets[s.mmu.hash(s.sid, vpn)]
	for *pp != nil {
		if e := *pp; e.sid == s.sid && e.vpn == vpn {
			return pp
		}
		pp = &(*pp).next
	}
	return nil
}

// setPTE implements ptes.
func (s *invSpace) setPTE(vpn uint64, e pte) {
	if s.sid == 0 {
		panic(errDestroyedMap)
	}
	if pp := s.find(vpn); pp != nil {
		(*pp).pte = e
		return
	}
	b := &s.mmu.buckets[s.mmu.hash(s.sid, vpn)]
	*b = &invEntry{sid: s.sid, vpn: vpn, pte: e, next: *b}
	s.mapped++
}

// getPTE implements ptes.
func (s *invSpace) getPTE(vpn uint64) (pte, bool) {
	if pp := s.find(vpn); pp != nil {
		return (*pp).pte, true
	}
	return pte{}, false
}

func (s *invSpace) Map(va gmi.VA, f *phys.Frame, p gmi.Prot) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	s.setPTE(s.mmu.vpn(va), pte{frame: f, prot: p})
	s.mmu.clock.Charge(cost.EvPageMap, 1)
}

func (s *invSpace) Unmap(va gmi.VA) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	if pp := s.find(s.mmu.vpn(va)); pp != nil {
		*pp = (*pp).next
		s.mapped--
		s.mmu.clock.Charge(cost.EvPageUnmap, 1)
	}
}

func (s *invSpace) Protect(va gmi.VA, p gmi.Prot) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	if pp := s.find(s.mmu.vpn(va)); pp != nil {
		(*pp).pte.prot = p
		s.mmu.clock.Charge(cost.EvPageProtect, 1)
	}
}

func (s *invSpace) Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	pp := s.find(s.mmu.vpn(va))
	if pp == nil {
		return nil, &Fault{VA: va, Access: access, Kind: FaultInvalid}
	}
	e := &(*pp).pte
	if err := e.check(va, access, system); err != nil {
		return nil, err
	}
	e.ref = true
	if access&gmi.ProtWrite != 0 {
		e.dirty = true
	}
	return e.frame, nil
}

func (s *invSpace) HarvestReferenced(va gmi.VA, npages int, visit func(int, bool)) {
	vpn := s.mmu.vpn(va)
	cleared := 0
	for i := 0; i < npages; i++ {
		s.mmu.mu.Lock()
		ref, dirty := false, false
		if pp := s.find(vpn + uint64(i)); pp != nil && (*pp).pte.ref {
			e := &(*pp).pte
			ref, dirty = true, e.dirty
			e.ref, e.dirty = false, false
		}
		s.mmu.mu.Unlock()
		if ref {
			if visit != nil {
				visit(i, dirty)
			}
			cleared++
		}
	}
	if cleared > 0 {
		s.mmu.clock.Charge(cost.EvPageProtect, cleared)
	}
}

func (s *invSpace) Lookup(va gmi.VA) (*phys.Frame, gmi.Prot, bool) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	if pp := s.find(s.mmu.vpn(va)); pp != nil {
		e := (*pp).pte
		return e.frame, e.prot, true
	}
	return nil, 0, false
}

func (s *invSpace) InvalidateRange(va gmi.VA, npages int) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	for i := 0; i < npages; i++ {
		if pp := s.find(s.mmu.vpn(va + gmi.VA(i<<s.mmu.shift))); pp != nil {
			*pp = (*pp).next
			s.mapped--
		}
	}
	s.mmu.clock.Charge(cost.EvPageInvalidate, npages)
}

func (s *invSpace) MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	mapBatch(s, &s.mmu.geometry, va, frames, p)
}

func (s *invSpace) ProtectRange(va gmi.VA, npages int, p gmi.Prot) {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	protectRange(s, &s.mmu.geometry, va, npages, p)
}

func (s *invSpace) Mapped() int { return s.mapped }

// Destroy unchains the space's entries from the shared table. A space
// whose regions were torn down first has none, and returns at once; else
// the walk stops at the last of them.
func (s *invSpace) Destroy() {
	s.mmu.mu.Lock()
	defer s.mmu.mu.Unlock()
	for i := 0; i < len(s.mmu.buckets) && s.mapped > 0; i++ {
		pp := &s.mmu.buckets[i]
		for *pp != nil {
			if (*pp).sid == s.sid {
				*pp = (*pp).next
				s.mapped--
				continue
			}
			pp = &(*pp).next
		}
	}
	s.sid = 0
}
