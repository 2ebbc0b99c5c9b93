// Package mmu simulates hardware memory-management units. It is the
// machine-dependent layer under the PVM: the PVM (and the Mach baseline)
// talk to a Space through the small interface below, and three MMU
// flavours implement it — mirroring the paper's claim that porting the PVM
// to a new MMU touches only this layer (their Sun-3, Motorola PMMU and
// iAPX-386 ports, Table 5).
//
// A Space is a per-context translation structure. Translation never walks
// anything expensive in a real machine (the TLB hits); accordingly
// Translate charges nothing, while the map/unmap/protect operations charge
// the machine-dependent costs the paper measures.
package mmu

import (
	"fmt"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/phys"
)

// FaultKind distinguishes the two hardware fault causes.
type FaultKind int

const (
	// FaultInvalid is a reference through a missing translation.
	FaultInvalid FaultKind = iota
	// FaultProtection is a reference violating the page protection.
	FaultProtection
)

// Fault is the hardware page-fault descriptor: the fault address and the
// access that caused it. It is returned by Translate as an error; the
// memory manager's handler consumes it.
type Fault struct {
	VA     gmi.VA
	Access gmi.Prot
	Kind   FaultKind
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "invalid"
	if f.Kind == FaultProtection {
		kind = "protection"
	}
	return fmt.Sprintf("mmu: %s fault at %#x (access %v)", kind, uint64(f.VA), f.Access)
}

// Space is one context's translation map. Concurrency contract: distinct
// spaces may be used concurrently, and the caller serializes access to any
// one space (the paper's "host kernel provides a simple synchronization
// interface"; core holds ctx.spaceMu or its exclusive lock). State that
// spaces share — sun3's page-table pool, pmmu's hash table — is the
// flavour's to lock, with a leaf mutex of its own.
type Space interface {
	// Map installs a translation for the page containing va.
	Map(va gmi.VA, f *phys.Frame, p gmi.Prot)

	// Unmap removes the translation for the page containing va, if any.
	Unmap(va gmi.VA)

	// Protect changes the protection of the page containing va; it is a
	// no-op if the page is not mapped.
	Protect(va gmi.VA, p gmi.Prot)

	// Translate performs one hardware reference of the given access type
	// (system indicates supervisor mode). On success it returns the
	// frame; on failure it returns a *Fault.
	Translate(va gmi.VA, access gmi.Prot, system bool) (*phys.Frame, error)

	// Lookup inspects the translation without charging costs or
	// faulting; for tests and invariant checks.
	Lookup(va gmi.VA) (f *phys.Frame, p gmi.Prot, ok bool)

	// InvalidateRange removes all translations in [va, va+n*pageSize);
	// the bulk form used at region destruction, cheaper per page than
	// individual Unmaps.
	InvalidateRange(va gmi.VA, npages int)

	// MapBatch installs translations for len(frames) consecutive pages
	// starting at va, one frame per page, all with protection p — the
	// bulk analogue of Map used by fault-around. One batched cost charge
	// covers the whole run.
	MapBatch(va gmi.VA, frames []*phys.Frame, p gmi.Prot)

	// ProtectRange changes the protection of every mapped page in
	// [va, va+npages*pageSize) to p, skipping holes — the bulk analogue
	// of Protect.
	ProtectRange(va gmi.VA, npages int, p gmi.Prot)

	// HarvestReferenced reads and clears the referenced/modified PTE bits
	// of the npages pages starting at va, calling visit(i, dirty) for
	// every page i in the range whose referenced bit was set since the
	// last harvest (dirty reports the page's modified bit, which is
	// cleared too — the memory manager's own dirty tracking, not the
	// hardware bit, is the write-back source of truth).
	HarvestReferenced(va gmi.VA, npages int, visit func(i int, dirty bool))

	// Mapped returns the number of live translations, for tests.
	Mapped() int

	// Destroy releases the space's translation structures.
	Destroy()
}

// MMU manufactures Spaces for one simulated memory-management unit.
type MMU interface {
	// Name identifies the flavour ("sun3", "pmmu", "i386").
	Name() string
	// PageSize returns the page size in bytes (a power of two).
	PageSize() int
	// NewSpace creates an empty translation map.
	NewSpace() Space
}

// errDestroyedMap is the panic of a Map or MapBatch on a destroyed space:
// its tables may already belong to another space.
const errDestroyedMap = "mmu: map on a destroyed space"

// geometry holds what every flavour needs: page arithmetic and the clock.
type geometry struct {
	name     string
	pageSize int
	shift    uint
	clock    *cost.Clock
}

func newGeometry(name string, pageSize int, clock *cost.Clock) geometry {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mmu: page size %d not a power of two", pageSize))
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	return geometry{name: name, pageSize: pageSize, shift: shift, clock: clock}
}

func (g geometry) Name() string  { return g.name }
func (g geometry) PageSize() int { return g.pageSize }

// vpn returns the virtual page number of va.
func (g geometry) vpn(va gmi.VA) uint64 { return uint64(va) >> g.shift }

// pte is one translation entry. ref and dirty model the hardware
// referenced/modified bits: set by Translate (the simulated reference),
// read-and-cleared by HarvestReferenced.
type pte struct {
	frame *phys.Frame
	prot  gmi.Prot
	ref   bool
	dirty bool
}

// ptes is the base-PTE primitive pair every flavour supplies, so the
// bulk operations are written once (mapBatch, protectRange). Neither
// method charges costs.
type ptes interface {
	setPTE(vpn uint64, e pte) // install or overwrite
	getPTE(vpn uint64) (pte, bool)
}

// mapBatch implements Space.MapBatch over a flavour's primitives: one
// batched charge for the whole run.
func mapBatch(t ptes, g *geometry, va gmi.VA, frames []*phys.Frame, p gmi.Prot) {
	vpn := g.vpn(va)
	for i, f := range frames {
		t.setPTE(vpn+uint64(i), pte{frame: f, prot: p})
	}
	g.clock.Charge(cost.EvPageMap, len(frames))
}

// protectRange implements Space.ProtectRange over a flavour's
// primitives, charging one protect per mapped page it changed.
func protectRange(t ptes, g *geometry, va gmi.VA, npages int, p gmi.Prot) {
	vpn := g.vpn(va)
	changed := 0
	for i := 0; i < npages; i++ {
		if e, ok := t.getPTE(vpn + uint64(i)); ok {
			e.prot = p
			t.setPTE(vpn+uint64(i), e)
			changed++
		}
	}
	if changed > 0 {
		g.clock.Charge(cost.EvPageProtect, changed)
	}
}

// check validates a reference of type access against the entry, returning
// a *Fault or nil.
func (e *pte) check(va gmi.VA, access gmi.Prot, system bool) error {
	if e == nil || e.frame == nil {
		return &Fault{VA: va, Access: access, Kind: FaultInvalid}
	}
	if e.prot&gmi.ProtSystem != 0 && !system {
		return &Fault{VA: va, Access: access, Kind: FaultProtection}
	}
	if !e.prot.Allows(access) {
		return &Fault{VA: va, Access: access, Kind: FaultProtection}
	}
	return nil
}
