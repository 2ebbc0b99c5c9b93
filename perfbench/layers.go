package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/obs"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// Timed boundaries: each accumulates a call count and the time the
// calls took.
const (
	tFork = iota
	tExec
	tExit
	tSend
	tRecv
	tSegPull
	tSegPush
	tStoreRead
	tStoreWrite
	tStoreSync
	nTimed
)

// Counted quantities.
const (
	cIPCMsgs = iota
	cIPCBcopyPages
	cSegCreates
	cBytesRead
	cBytesWritten
	cWritePages // pages in backend WriteAt calls (tStoreWrite counts the batches)
	nCounts
)

// probes collects what the traced run measures from the benchmark's own
// side of each layer boundary: timed calls into mix and ipc, and the
// decorators of wrap.go around segments, the segment allocator and
// store backends. The untraced run has no probes and no decorators.
type probes struct {
	timed [nTimed][2]atomic.Int64 // calls, nanoseconds
	count [nCounts]atomic.Int64

	freeMin atomic.Int64 // lowest sampled free-frame count

	mu   sync.Mutex
	segs []*seg.Segment // segments whose store engines the run reads stats from
}

func newProbes() *probes {
	pr := &probes{}
	pr.freeMin.Store(math.MaxInt64)
	return pr
}

// since records one call of timed boundary t that began at start.
func (pr *probes) since(t int, start time.Time) {
	pr.timed[t][0].Add(1)
	pr.timed[t][1].Add(int64(time.Since(start)))
}

func (pr *probes) addSegment(s *seg.Segment) {
	pr.mu.Lock()
	pr.segs = append(pr.segs, s)
	pr.mu.Unlock()
}

// sampleFree records a free-frame sample; nil-safe.
func (pr *probes) sampleFree(n int) {
	if pr == nil {
		return
	}
	for {
		cur := pr.freeMin.Load()
		if int64(n) >= cur || pr.freeMin.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// probeSnap is a plain copy of the probe counters, for deltas and sums.
type probeSnap struct {
	timed  [nTimed][2]int64
	count  [nCounts]int64
	engine store.Stats
}

func (pr *probes) snap() probeSnap {
	var s probeSnap
	for i := range s.timed {
		s.timed[i] = [2]int64{pr.timed[i][0].Load(), pr.timed[i][1].Load()}
	}
	for i := range s.count {
		s.count[i] = pr.count[i].Load()
	}
	pr.mu.Lock()
	for _, sg := range pr.segs {
		s.engine.Add(sg.Store().Engine().StatsSnapshot())
	}
	pr.mu.Unlock()
	return s
}

// plus returns s + sign*o.
func (s probeSnap) plus(o probeSnap, sign int64) probeSnap {
	for i := range s.timed {
		s.timed[i][0] += sign * o.timed[i][0]
		s.timed[i][1] += sign * o.timed[i][1]
	}
	for i := range s.count {
		s.count[i] += sign * o.count[i]
	}
	if sign < 0 {
		s.engine = s.engine.Delta(o.engine)
	} else {
		s.engine.Add(o.engine)
	}
	return s
}

// layerCounts is one round's per-layer activity over its measured
// interval (Backend.Sync timings span the whole round: a store syncs only
// at set-up and teardown).
type layerCounts struct {
	core       core.Stats
	events     [cost.NumEvents]uint64
	obs        obs.Snapshot
	probes     probeSnap
	cachesLive int
	freeMin    int64
	accesses   int // page reads and writes the workload issued
}

// meter brackets a round's measured interval: wall clock and simulated
// clock always, and in the traced run every per-layer counter.
type meter struct {
	p      *core.PVM
	clock  *cost.Clock
	pr     *probes
	tracer *obs.Tracer

	t0   time.Time
	clk0 cost.Snapshot
	st0  core.Stats
	obs0 obs.Snapshot
	prb0 probeSnap
	lc   *layerCounts // set by stop in the traced run
}

func startMeter(p *core.PVM, clock *cost.Clock, pr *probes, tracer *obs.Tracer) *meter {
	m := &meter{p: p, clock: clock, pr: pr, tracer: tracer, st0: p.Stats()}
	if pr != nil {
		m.obs0 = tracer.Snapshot()
		m.prb0 = pr.snap()
	}
	m.clk0 = clock.Snapshot()
	m.t0 = time.Now()
	return m
}

// stop ends the measured interval, before teardown. The PVM counters and
// the cost events are kept in every run (the self-tests read them); the
// rest only in the traced run.
func (m *meter) stop(rr *roundResult, accesses int) {
	rr.wall = time.Since(m.t0)
	end := m.clock.Snapshot()
	rr.sim = time.Duration(end.Nanos - m.clk0.Nanos)
	lc := &layerCounts{core: m.p.Stats().Delta(m.st0), accesses: accesses}
	for e := range lc.events {
		lc.events[e] = end.Counts[e] - m.clk0.Counts[e]
	}
	rr.layers = lc
	if m.pr == nil {
		return
	}
	lc.obs = obsDelta(m.tracer.Snapshot(), m.obs0)
	lc.cachesLive = m.p.CacheCount()
	lc.freeMin = m.pr.freeMin.Load()
	lc.probes = m.pr.snap().plus(m.prb0, -1)
	m.lc = lc
}

// finish runs after teardown and folds in the whole round's Sync timings.
func (m *meter) finish() {
	if m.lc != nil {
		m.lc.probes.timed[tStoreSync] = m.pr.snap().timed[tStoreSync]
	}
}

func obsDelta(a, b obs.Snapshot) obs.Snapshot {
	for i := range a.Ops {
		a.Ops[i].Count -= b.Ops[i].Count
		a.Ops[i].Sum -= b.Ops[i].Sum
	}
	return a
}

// perLayerNames lists every per-layer metric in output order with its unit.
var perLayerNames = []struct{ name, unit string }{
	{"mix.fork_us", "us"}, {"mix.exec_us", "us"}, {"mix.exit_us", "us"},
	{"ipc.send_us", "us"}, {"ipc.recv_us", "us"}, {"ipc.bcopy_pages_per_msg", "pages"},
	{"core.faults_per_kop", "count"}, {"core.soft_fault_share", "ratio"},
	{"core.cow_breaks_per_op", "count"}, {"core.history_pushes_per_op", "count"},
	{"core.stub_breaks_per_op", "count"}, {"core.zero_fills_per_op", "count"},
	{"core.bcopy_pages_per_op", "pages"}, {"core.bzero_pages_per_op", "pages"},
	{"core.caches_live", "count"},
	{"core.lockwait_us", "us"}, {"core.resolve_us", "us"}, {"core.complete_us", "us"},
	{"mmu.page_maps_per_op", "count"}, {"mmu.page_protects_per_op", "count"},
	{"mmu.page_unmaps_per_op", "count"}, {"mmu.tlb_flushes_per_op", "count"},
	{"seg.pullin_us", "us"}, {"seg.pullins_per_kop", "count"},
	{"seg.pushout_us", "us"}, {"seg.pushouts_per_kop", "count"}, {"seg.segment_creates", "count"},
	{"store.read_us", "us"}, {"store.write_us", "us"}, {"store.sync_us", "us"},
	{"store.bytes_read_per_op", "B"}, {"store.bytes_written_per_op", "B"},
	{"store.pages_per_batch", "pages"}, {"store.coalesced_share", "ratio"},
	{"store.queue_hits", "count"}, {"store.retries", "count"}, {"store.corruptions", "count"},
	{"policy.hard_fault_ratio", "ratio"}, {"policy.second_chances_per_kop", "count"}, {"policy.wait_us", "us"},
	{"pageout.evictions_per_kop", "count"}, {"pageout.async_batches", "count"},
	{"phys.free_frames_min", "frames"}, {"phys.magazine_refills_per_kop", "count"},
	{"phys.batch_frees_per_kop", "count"},
	{"trace.ops_per_s", "1/s"}, {"trace.op_p99_us", "us"},
}

// perLayer derives the per-layer metrics of a traced run. Means of timed
// calls are busy time per call; "_per_op"/"_per_kop" divide by every
// attempted op; bare counts are per round.
func perLayer(rounds []roundResult, e2e endToEnd) []namedValue {
	var (
		st       core.Stats
		ev       [cost.NumEvents]uint64
		ob       obs.Snapshot
		pb       probeSnap
		live     float64
		freeMin  = int64(math.MaxInt64)
		ops, acc int
	)
	for _, rr := range rounds {
		lc := rr.layers
		ops += rr.attempts
		st = addStats(st, lc.core)
		for e := range ev {
			ev[e] += lc.events[e]
		}
		for i := range ob.Ops {
			ob.Ops[i].Count += lc.obs.Ops[i].Count
			ob.Ops[i].Sum += lc.obs.Ops[i].Sum
		}
		pb = pb.plus(lc.probes, 1)
		live += float64(lc.cachesLive)
		if lc.freeMin < freeMin {
			freeMin = lc.freeMin
		}
		acc += lc.accesses
	}
	if freeMin == math.MaxInt64 {
		freeMin = 0
	}
	n := float64(len(rounds))
	perOp := func(x uint64) float64 { return float64(x) / float64(ops) }
	perKop := func(x uint64) float64 { return 1000 * perOp(x) }
	meanUS := func(t int) float64 { return ratio(float64(pb.timed[t][1])/1e3, float64(pb.timed[t][0])) }
	obsUS := func(op obs.Op) float64 {
		return ratio(float64(ob.Ops[op].Sum)/1e3, float64(ob.Ops[op].Count))
	}
	v := map[string]float64{
		"mix.fork_us":                   meanUS(tFork),
		"mix.exec_us":                   meanUS(tExec),
		"mix.exit_us":                   meanUS(tExit),
		"ipc.send_us":                   meanUS(tSend),
		"ipc.recv_us":                   meanUS(tRecv),
		"ipc.bcopy_pages_per_msg":       ratio(float64(pb.count[cIPCBcopyPages]), float64(pb.count[cIPCMsgs])),
		"core.faults_per_kop":           perKop(st.Faults),
		"core.soft_fault_share":         ratio(float64(st.SoftFaults), float64(st.Faults)),
		"core.cow_breaks_per_op":        perOp(st.CowBreaks),
		"core.history_pushes_per_op":    perOp(st.HistoryPushes),
		"core.stub_breaks_per_op":       perOp(st.StubBreaks),
		"core.zero_fills_per_op":        perOp(st.ZeroFills),
		"core.bcopy_pages_per_op":       perOp(ev[cost.EvBcopyPage]),
		"core.bzero_pages_per_op":       perOp(ev[cost.EvBzeroPage]),
		"core.caches_live":              live / n,
		"core.lockwait_us":              obsUS(obs.OpLockWait),
		"core.resolve_us":               obsUS(obs.OpResolve),
		"core.complete_us":              obsUS(obs.OpComplete),
		"mmu.page_maps_per_op":          perOp(ev[cost.EvPageMap]),
		"mmu.page_protects_per_op":      perOp(ev[cost.EvPageProtect]),
		"mmu.page_unmaps_per_op":        perOp(ev[cost.EvPageUnmap]),
		"mmu.tlb_flushes_per_op":        perOp(ev[cost.EvTLBFlush]),
		"seg.pullin_us":                 meanUS(tSegPull),
		"seg.pullins_per_kop":           perKop(st.PullIns),
		"seg.pushout_us":                meanUS(tSegPush),
		"seg.pushouts_per_kop":          perKop(st.PushOuts),
		"seg.segment_creates":           float64(pb.count[cSegCreates]) / n,
		"store.read_us":                 meanUS(tStoreRead),
		"store.write_us":                meanUS(tStoreWrite),
		"store.sync_us":                 meanUS(tStoreSync),
		"store.bytes_read_per_op":       perOp(uint64(pb.count[cBytesRead])),
		"store.bytes_written_per_op":    perOp(uint64(pb.count[cBytesWritten])),
		"store.pages_per_batch":         ratio(float64(pb.count[cWritePages]), float64(pb.timed[tStoreWrite][0])),
		"store.coalesced_share":         ratio(float64(pb.engine.Coalesced), float64(pb.engine.BatchPages)),
		"store.queue_hits":              float64(pb.engine.QueueHits) / n,
		"store.retries":                 float64(pb.engine.Retries) / n,
		"store.corruptions":             float64(pb.engine.Corruptions) / n,
		"policy.hard_fault_ratio":       ratio(float64(st.Faults-st.SoftFaults), float64(acc)),
		"policy.second_chances_per_kop": perKop(st.PolicySecondChances),
		"policy.wait_us":                obsUS(obs.OpPolicyWait),
		"pageout.evictions_per_kop":     perKop(st.Evictions),
		"pageout.async_batches":         float64(st.AsyncBatches) / n,
		"phys.free_frames_min":          float64(freeMin),
		"phys.magazine_refills_per_kop": perKop(st.MagazineRefills),
		"phys.batch_frees_per_kop":      perKop(st.BatchFrees),
		"trace.ops_per_s":               e2e.opsPerS,
		"trace.op_p99_us":               e2e.p99us,
	}
	out := make([]namedValue, 0, len(perLayerNames))
	for _, m := range perLayerNames {
		out = append(out, namedValue{m.name, v[m.name], m.unit})
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addStats sums two counter sets field by field (Delta's inverse).
func addStats(a, b core.Stats) core.Stats {
	var zero core.Stats
	neg := zero.Delta(b) // 0 - b, modulo 2^64
	return a.Delta(neg)
}
