package core

import (
	"fmt"
	"sort"

	"chorusvm/internal/gmi"
)

// This file exposes a read-only view of the PVM's deferred-copy structure
// for tools (cmd/vmsim's Figure 3 renderer) and tests. It is not part of
// the GMI.

// PageInfo describes one resident page.
type PageInfo struct {
	Off          int64
	Dirty        bool
	CowProtected bool
	Pinned       bool
	HasStubs     bool
}

// FragmentInfo describes one parent fragment.
type FragmentInfo struct {
	Off, Size int64
	Parent    gmi.Cache
	ParentOff int64
}

// CacheInfo describes a cache's place in the history tree.
type CacheInfo struct {
	Resident []PageInfo
	Parents  []FragmentInfo
	History  gmi.Cache
	Working  bool
	Zombie   bool
	Temp     bool
}

// String renders every counter, in field order, for tools and logs
// (TestStatsStringAndDeltaCoverEveryField keeps it exhaustive).
func (s Stats) String() string {
	return fmt.Sprintf(
		"faults=%d softfaults=%d segv=%d protfaults=%d zerofills=%d cowbreaks=%d historypushes=%d stubbreaks=%d pullins=%d fillsubmits=%d fillcompletes=%d pushouts=%d asyncbatches=%d evictions=%d collapses=%d zombies=%d faultaround=%d speccancels=%d magazinerefills=%d batchfrees=%d harvests=%d secondchances=%d polpromotions=%d",
		s.Faults, s.SoftFaults, s.SegvFaults, s.ProtFaults, s.ZeroFills, s.CowBreaks, s.HistoryPushes,
		s.StubBreaks, s.PullIns, s.FillSubmits, s.FillCompletes, s.PushOuts, s.AsyncBatches,
		s.Evictions, s.Collapses, s.Zombies,
		s.FaultAroundMapped, s.SpeculationsCancelled,
		s.MagazineRefills, s.BatchFrees,
		s.PolicyHarvests, s.PolicySecondChances, s.PolicyPromotions)
}

// Describe reports the structure behind a cache; ok is false for foreign
// or freed caches.
func (p *PVM) Describe(c gmi.Cache) (CacheInfo, bool) {
	cc, isMine := c.(*cache)
	if !isMine {
		return CacheInfo{}, false
	}
	p.mu.Lock()
	defer p.unlock()
	if _, live := p.caches[cc]; !live {
		return CacheInfo{}, false
	}
	var info CacheInfo
	for pg := cc.pageHead; pg != nil; pg = pg.nextInCache {
		info.Resident = append(info.Resident, PageInfo{
			Off:          pg.off,
			Dirty:        pg.dirty,
			CowProtected: pg.cowProtected,
			Pinned:       pg.pin > 0,
			HasStubs:     pg.stubs != nil,
		})
	}
	sort.Slice(info.Resident, func(i, j int) bool { return info.Resident[i].Off < info.Resident[j].Off })
	for _, pr := range cc.parents {
		info.Parents = append(info.Parents, FragmentInfo{
			Off: pr.off, Size: pr.size, Parent: pr.parent, ParentOff: pr.poff,
		})
	}
	if cc.history != nil {
		info.History = cc.history
	}
	info.Working = cc.working
	info.Zombie = cc.zombie
	info.Temp = cc.temp
	return info, true
}

// Caches lists every live cache descriptor, including internal ones
// (working objects, zombies), so tools can walk the whole tree.
func (p *PVM) Caches() []gmi.Cache {
	p.mu.Lock()
	defer p.unlock()
	out := make([]gmi.Cache, 0, len(p.caches))
	for c := range p.caches {
		out = append(out, c)
	}
	return out
}
