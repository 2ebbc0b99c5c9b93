package mmu

import (
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// A translation-lookaside buffer model, as a decorator over any MMU
// flavour. Real MMUs cache translations; the machine-dependent layer must
// flush those caches whenever it changes a mapping, or the machine keeps
// honouring stale rights — the classic VM correctness hazard. This
// decorator makes the hazard explicit: every Map/Protect/Unmap/Invalidate
// shoots the affected entries down (charging EvTLBFlush), and Translate
// consults the TLB first. The hit/miss counters quantify locality; the
// memory manager's correctness does not depend on the hit ratio, which
// the differential tests verify by running the same workload with and
// without the decorator.

// TLBStats counts decorator activity.
type TLBStats struct {
	Hits, Misses, Flushes uint64
}

// TLBMMU wraps an MMU flavour with per-space TLBs.
type TLBMMU struct {
	inner   MMU
	entries int
	clock   *cost.Clock

	hits, misses, flushes atomic.Uint64
}

// WithTLB decorates an MMU with direct-mapped TLBs of n entries per space
// (n is rounded up to a power of two, minimum 16).
func WithTLB(inner MMU, n int, clock *cost.Clock) *TLBMMU {
	size := 16
	for size < n {
		size <<= 1
	}
	return &TLBMMU{inner: inner, entries: size, clock: clock}
}

// Name implements MMU.
func (m *TLBMMU) Name() string { return m.inner.Name() + "+tlb" }

// PageSize implements MMU.
func (m *TLBMMU) PageSize() int { return m.inner.PageSize() }

// Stats returns the aggregate TLB counters.
func (m *TLBMMU) Stats() TLBStats {
	return TLBStats{
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Flushes: m.flushes.Load(),
	}
}

// NewSpace implements MMU.
func (m *TLBMMU) NewSpace() Space {
	shift := uint(0)
	for 1<<shift != m.PageSize() {
		shift++
	}
	return &tlbSpace{
		m:     m,
		inner: m.inner.NewSpace(),
		tlb:   make([]tlbEntry, m.entries),
		mask:  uint64(m.entries - 1),
		shift: shift,
	}
}

type tlbEntry struct {
	vpn   uint64
	frame *phys.Frame
	prot  gmi.Prot
	valid bool
}

type tlbSpace struct {
	m     *TLBMMU
	inner Space
	tlb   []tlbEntry
	mask  uint64
	shift uint
}

func (s *tlbSpace) vpn(va gmi.VA) uint64 { return uint64(va) >> s.shift }

// shootdown invalidates the TLB entry covering va, if any.
func (s *tlbSpace) shootdown(va gmi.VA) {
	vpn := s.vpn(va)
	e := &s.tlb[vpn&s.mask]
	if e.valid && e.vpn == vpn {
		e.valid = false
		s.m.flushes.Add(1)
		s.m.clock.Charge(cost.EvTLBFlush, 1)
	}
}

// Map implements Space.
func (s *tlbSpace) Map(va gmi.VA, f *phys.Frame, p gmi.Prot) {
	s.shootdown(va)
	s.inner.Map(va, f, p)
}

// Unmap implements Space.
func (s *tlbSpace) Unmap(va gmi.VA) {
	s.shootdown(va)
	s.inner.Unmap(va)
}

// Protect implements Space.
func (s *tlbSpace) Protect(va gmi.VA, p gmi.Prot) {
	s.shootdown(va)
	s.inner.Protect(va, p)
}

// shootRange invalidates the TLB entries covering npages from va,
// flushing the whole TLB when that is cheaper.
func (s *tlbSpace) shootRange(va gmi.VA, npages int) {
	if npages >= len(s.tlb) {
		for i := range s.tlb {
			s.tlb[i].valid = false
		}
		s.m.flushes.Add(1)
		s.m.clock.Charge(cost.EvTLBFlush, 1)
		return
	}
	for i := 0; i < npages; i++ {
		s.shootdown(va + gmi.VA(i<<s.shift))
	}
}

// InvalidateRange implements Space.
func (s *tlbSpace) InvalidateRange(va gmi.VA, npages int) {
	s.shootRange(va, npages)
	s.inner.InvalidateRange(va, npages)
}

// MapBatch implements Space: every page's cached entry is shot down
// before the bulk install.
func (s *tlbSpace) MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	s.shootRange(va, len(frames))
	s.inner.MapBatch(va, frames, p)
}

// ProtectRange implements Space.
func (s *tlbSpace) ProtectRange(va gmi.VA, npages int, p gmi.Prot) {
	s.shootRange(va, npages)
	s.inner.ProtectRange(va, npages, p)
}

// HarvestReferenced implements Space. The range is shot down first: a TLB
// hit does not re-walk the tables, so referenced bits are set only on a
// miss refill — without the shootdown, pages the workload keeps touching
// through cached translations would look idle to every later harvest.
// This is why real kernels pair referenced-bit clearing with a TLB flush.
func (s *tlbSpace) HarvestReferenced(va gmi.VA, npages int, visit func(int, bool)) {
	s.shootRange(va, npages)
	s.inner.HarvestReferenced(va, npages, visit)
}

// Translate implements Space: TLB first, then the walk.
func (s *tlbSpace) Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error) {
	vpn := s.vpn(va)
	e := &s.tlb[vpn&s.mask]
	if e.valid && e.vpn == vpn {
		// The TLB caches rights too; a cached entry that denies the
		// access behaves exactly like the underlying PTE denying it
		// (the entry is in sync with the PTE by the shootdown rule).
		// A hit does not touch the PTE, so referenced/modified bits are
		// set only on the miss refill below — the model behind
		// HarvestReferenced's range shootdown.
		if e.prot&gmi.ProtSystem != 0 && !system {
			s.m.hits.Add(1)
			return nil, &Fault{VA: va, Access: access, Kind: FaultProtection}
		}
		if !e.prot.Allows(access) {
			s.m.hits.Add(1)
			return nil, &Fault{VA: va, Access: access, Kind: FaultProtection}
		}
		s.m.hits.Add(1)
		return e.frame, nil
	}
	s.m.misses.Add(1)
	f, err := s.inner.Translate(va, access, system)
	if err != nil {
		return nil, err
	}
	// Refill from the authoritative PTE.
	if frame, prot, ok := s.inner.Lookup(va); ok {
		*e = tlbEntry{vpn: vpn, frame: frame, prot: prot, valid: true}
	}
	return f, nil
}

// Lookup implements Space (authoritative, bypasses the TLB).
func (s *tlbSpace) Lookup(va gmi.VA) (*phys.Frame, gmi.Prot, bool) {
	return s.inner.Lookup(va)
}

// Mapped implements Space.
func (s *tlbSpace) Mapped() int { return s.inner.Mapped() }

// Destroy implements Space.
func (s *tlbSpace) Destroy() {
	for i := range s.tlb {
		s.tlb[i].valid = false
	}
	s.inner.Destroy()
}
