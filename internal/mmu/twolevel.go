package mmu

import (
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// Two-level tree MMU, in the style of the Sun-3 segment/page maps: a root
// table of pointers to leaf tables of PTEs. Sparse address spaces cost one
// root slot per 2^leafBits pages actually used.
//
// Page-table memory belongs to the MMU, not to a space: like the Sun-3's
// fixed pool of contexts and page-map groups, roots and leaves are drawn
// from a per-MMU free list and go back to it at Destroy, so creating and
// destroying address spaces (every fork) allocates and zeroes no table
// once the list is warm. The list never holds more than the peak number
// of tables live at once.

const (
	leafBits = 10
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
	rootSize = 1 << 12 // supports 2^(12+10) pages: 32 GB of VA at 8 KB pages
)

// leaf is one page-map table. live counts its PTEs with a frame; every
// other PTE is entirely zero (Unmap and InvalidateRange clear the whole
// entry, referenced and modified bits included), so a leaf whose live
// count is zero can be reused without clearing.
type leaf struct {
	ptes [leafSize]pte
	live int
}

// root is one context's segment map. used lists the slots holding a
// leaf, so Destroy visits only those; every other slot is nil.
type root struct {
	slots [rootSize]*leaf
	used  []uint16
}

// TwoLevel is the Sun-3-style MMU flavour.
type TwoLevel struct {
	geometry

	// poolMu guards the free lists. It is a leaf lock: spaces take it
	// under their owner's locks (core's p.mu or ctx.spaceMu, machvm's
	// mu), since two contexts may create leaves concurrently on core's
	// fast fault path, and nothing is acquired while it is held.
	poolMu sync.Mutex
	roots  []*root
	leaves []*leaf
}

// NewTwoLevel creates the flavour with the given page size.
func NewTwoLevel(pageSize int, clock *cost.Clock) *TwoLevel {
	return &TwoLevel{geometry: newGeometry("sun3", pageSize, clock)}
}

// NewSpace implements MMU.
func (m *TwoLevel) NewSpace() Space {
	m.poolMu.Lock()
	var r *root
	if n := len(m.roots); n > 0 {
		r = m.roots[n-1]
		m.roots = m.roots[:n-1]
	}
	m.poolMu.Unlock()
	if r == nil {
		r = new(root)
	}
	return &twoLevelSpace{m: m, root: r}
}

// newLeaf takes an empty leaf from the free list, allocating one only
// when the list is empty.
func (m *TwoLevel) newLeaf() *leaf {
	m.poolMu.Lock()
	var l *leaf
	if n := len(m.leaves); n > 0 {
		l = m.leaves[n-1]
		m.leaves = m.leaves[:n-1]
	}
	m.poolMu.Unlock()
	if l == nil {
		l = new(leaf)
	}
	return l
}

type twoLevelSpace struct {
	m      *TwoLevel
	root   *root // nil once destroyed
	mapped int
}

func (s *twoLevelSpace) slotVPN(vpn uint64, create bool) (*leaf, *pte) {
	ri := vpn >> leafBits
	if s.root == nil || ri >= rootSize {
		return nil, nil
	}
	l := s.root.slots[ri]
	if l == nil {
		if !create {
			return nil, nil
		}
		l = s.m.newLeaf()
		s.root.slots[ri] = l
		s.root.used = append(s.root.used, uint16(ri))
	}
	return l, &l.ptes[vpn&leafMask]
}

// lookup returns the PTE for va if it holds a translation.
func (s *twoLevelSpace) lookup(va gmi.VA) *pte {
	if _, e := s.slotVPN(s.m.vpn(va), false); e != nil && e.frame != nil {
		return e
	}
	return nil
}

// setPTE implements ptes: it writes e (which has a frame) into the PTE
// for vpn, creating its leaf if needed.
func (s *twoLevelSpace) setPTE(vpn uint64, e pte) {
	if s.root == nil {
		panic(errDestroyedMap)
	}
	l, slot := s.slotVPN(vpn, true)
	if slot == nil {
		panic("mmu: va outside two-level root coverage")
	}
	if slot.frame == nil {
		l.live++
		s.mapped++
	}
	*slot = e
}

// clear removes the translation for vpn, if any, reporting whether there
// was one.
func (s *twoLevelSpace) clear(vpn uint64) bool {
	l, e := s.slotVPN(vpn, false)
	if e == nil || e.frame == nil {
		return false
	}
	*e = pte{}
	l.live--
	s.mapped--
	return true
}

func (s *twoLevelSpace) Map(va gmi.VA, f *phys.Frame, p gmi.Prot) {
	s.setPTE(s.m.vpn(va), pte{frame: f, prot: p})
	s.m.clock.Charge(cost.EvPageMap, 1)
}

func (s *twoLevelSpace) Unmap(va gmi.VA) {
	if s.clear(s.m.vpn(va)) {
		s.m.clock.Charge(cost.EvPageUnmap, 1)
	}
}

func (s *twoLevelSpace) Protect(va gmi.VA, p gmi.Prot) {
	if e := s.lookup(va); e != nil {
		e.prot = p
		s.m.clock.Charge(cost.EvPageProtect, 1)
	}
}

func (s *twoLevelSpace) Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error) {
	e := s.lookup(va)
	if e == nil {
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
	vpn := s.m.vpn(va)
	cleared := 0
	for i := 0; i < npages; i++ {
		if _, e := s.slotVPN(vpn+uint64(i), false); e != nil && e.frame != nil && e.ref {
			if visit != nil {
				visit(i, e.dirty)
			}
			e.ref, e.dirty = false, false
			cleared++
		}
	}
	if cleared > 0 {
		s.m.clock.Charge(cost.EvPageProtect, cleared)
	}
}

func (s *twoLevelSpace) Lookup(va gmi.VA) (*phys.Frame, gmi.Prot, bool) {
	e := s.lookup(va)
	if e == nil {
		return nil, 0, false
	}
	return e.frame, e.prot, true
}

func (s *twoLevelSpace) InvalidateRange(va gmi.VA, npages int) {
	vpn := s.m.vpn(va)
	for i := 0; i < npages; i++ {
		s.clear(vpn + uint64(i))
	}
	s.m.clock.Charge(cost.EvPageInvalidate, npages)
}

// getPTE implements ptes.
func (s *twoLevelSpace) getPTE(vpn uint64) (pte, bool) {
	if _, e := s.slotVPN(vpn, false); e != nil && e.frame != nil {
		return *e, true
	}
	return pte{}, false
}

func (s *twoLevelSpace) MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	mapBatch(s, &s.m.geometry, va, frames, p)
}

func (s *twoLevelSpace) ProtectRange(va gmi.VA, npages int, p gmi.Prot) {
	protectRange(s, &s.m.geometry, va, npages, p)
}

func (s *twoLevelSpace) Mapped() int { return s.mapped }

// Destroy returns the space's leaves and root to the MMU's free list.
// Only leaves still holding translations are cleared; a space whose
// regions were torn down first returns all of them as they are.
func (s *twoLevelSpace) Destroy() {
	r := s.root
	if r == nil {
		return
	}
	s.root, s.mapped = nil, 0
	for _, ri := range r.used {
		if l := r.slots[ri]; l.live > 0 {
			*l = leaf{}
		}
	}
	m := s.m
	m.poolMu.Lock()
	for _, ri := range r.used {
		m.leaves = append(m.leaves, r.slots[ri])
		r.slots[ri] = nil
	}
	r.used = r.used[:0]
	m.roots = append(m.roots, r)
	m.poolMu.Unlock()
}
