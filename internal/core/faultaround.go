package core

import (
	"sync/atomic"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/phys"
)

// Fault-around: a fault that finds its page already resident (typically
// because the async pager's read-ahead cluster installed it) also maps
// the page's resident neighbours from the same naturally-aligned cluster.
// Because shardOf hashes offsets at supercluster granularity, the whole
// cluster lives in the shard the fault already locked — the neighbour
// scan and the batched MMU update add no lock acquisitions. A sequential
// reader over resident pages then takes one hardware fault per cluster
// instead of one per page.

const (
	// faultAroundShift aligns the global-map shard hash on
	// 2^faultAroundShift-page superclusters, so every fault-around
	// candidate shares the faulting key's shard; faultAroundMax is
	// therefore the widest supported cluster.
	faultAroundShift = 3
	faultAroundMax   = 1 << faultAroundShift
)

// faultAroundMap maps resident neighbours of the fault that just mapped
// (c, off) at pva for ctx. Neighbours are always mapped with their read
// protection; a later write to one takes its own fault, exactly as if
// fault-around had not run.
//
// Caller holds either p.mu exclusively or p.mu.RLock plus the key's
// shard mutex. Every cluster key hashes to that same shard (see
// shardOf), so neighbour descriptors are readable under both regimes;
// ctx.spaceMu and the policy's internal mutex are taken here as leaf
// locks.
func (p *PVM) faultAroundMap(ctx *context, r *region, c *cache, pva gmi.VA, off int64) {
	start := p.obs.Clock()
	n := int64(p.faultAround)
	cbytes := n * p.pageSize
	cbase := off &^ (cbytes - 1)
	sh := p.shardOf(pageKey{c, off})

	// One pass over the cluster collects the mappable resident
	// neighbours: resident, not mid-pushout, readable, inside the region.
	type cand struct {
		pg   *page
		va   gmi.VA
		prot gmi.Prot
	}
	var cands [faultAroundMax]cand
	nc := 0
	for o := cbase; o < cbase+cbytes; o += p.pageSize {
		if o == off || o < r.coff || o >= r.coff+r.size {
			continue
		}
		pg, ok := sh.m[pageKey{c, o}].(*page)
		if !ok || pg.busy {
			continue
		}
		prot := p.readProt(r, pg)
		if !prot.Allows(gmi.ProtRead) {
			continue
		}
		cands[nc] = cand{pg: pg, va: r.addr + gmi.VA(o-r.coff), prot: prot}
		nc++
	}
	if nc == 0 {
		return
	}
	p.clock.Charge(cost.EvGlobalMapOp, 1) // the whole scan is one shard trip

	// Install the candidates in maximal runs of consecutive pages with
	// equal protection — one MapBatch per run, all under one spaceMu
	// acquisition. Already-mapped pages are skipped, not recounted.
	var touched [faultAroundMax]*page
	mapped := 0
	ctx.spaceMu.Lock()
	var frames [faultAroundMax]*phys.Frame
	i := 0
	for i < nc {
		if _, _, ok := ctx.space.Lookup(cands[i].va); ok {
			i++
			continue
		}
		j := i
		for j < nc && cands[j].va == cands[i].va+gmi.VA(int64(j-i))*gmi.VA(p.pageSize) && cands[j].prot == cands[i].prot {
			if j > i {
				if _, _, ok := ctx.space.Lookup(cands[j].va); ok {
					break
				}
			}
			frames[j-i] = cands[j].pg.frame
			j++
		}
		ctx.space.MapBatch(cands[i].va, frames[:j-i], cands[i].prot)
		for k := i; k < j; k++ {
			cands[k].pg.addMapping(ctx, cands[k].va)
			touched[mapped] = cands[k].pg
			mapped++
		}
		i = j
	}
	ctx.spaceMu.Unlock()

	if mapped > 0 {
		for k := 0; k < mapped; k++ {
			p.noteReference(touched[k])
		}
		atomic.AddUint64(&p.stats.FaultAroundMapped, uint64(mapped))
	}
	p.obs.Span(obs.KindFaultAround, obs.OpFaultAround, int64(c.id), int64(mapped), start)
}
