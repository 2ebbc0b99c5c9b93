// Package obs is the observability substrate for the whole VM stack: a
// striped lock-free ring buffer of typed trace events, per-operation
// log-bucketed latency histograms, and pluggable sinks (human-readable
// text, JSONL, Chrome trace-event JSON loadable in chrome://tracing and
// Perfetto).
//
// It plays, for this repository, the role the Chorus Nucleus Simulator
// played for the paper (section 5.2): the lens through which the cost of
// every memory-management operation is seen. The fault path in particular
// is broken down into the stages the paper's Tables 6/7 derive costs for:
// lock acquisition, resolution work under the locks, the submit and
// complete halves of the mapper protocol (issuing a fill to the pager
// versus waiting for its completion to publish the page), and
// page-content work (bzero/bcopy).
//
// Design rules:
//
//   - The disabled path is free. Every probe is nil-safe: a component
//     holding a nil *Tracer pays exactly one predictable branch and zero
//     allocations per probe. A constructed-but-disabled Tracer adds one
//     atomic load. (Enforced by TestDisabledTracerZeroAllocs.)
//   - The enabled hot path never allocates and never takes a lock:
//     events go to a striped seqlock ring (atomic cursor reservation plus
//     atomic word stores), histogram observations are two atomic adds.
//   - Memory is bounded. Each ring stripe holds a fixed number of slots;
//     when a stripe wraps, the oldest events are overwritten and counted
//     by Drops(). Histograms are fixed arrays.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind identifies a trace-event type.
type Kind uint8

// Event kinds, one per instrumented operation across the stack.
const (
	KindFault           Kind = iota // core: one page fault, with stage breakdown
	KindZeroFill                    // core: demand-zero page materialized
	KindCowBreak                    // core: private page materialized by a deferred copy
	KindStubBreak                   // core: per-page stub resolved by copying
	KindHistoryPush                 // core: original preserved into a history object
	KindHistoryInsert               // core: history-tree insertion (deferred copy setup)
	KindHistoryCollapse             // core: working object collapsed out of the tree
	KindEvict                       // core: frame reclaimed by page-out
	KindPullIn                      // core: pullIn upcall, issue to completion
	KindPushOut                     // core: pushOut upcall, issue to completion
	KindGetWrite                    // core: getWriteAccess upcall, issue to completion
	KindSegCreate                   // core: segmentCreate upcall (swap assignment)
	KindSegPull                     // seg: mapper-side pullIn service time
	KindSegPush                     // seg: mapper-side pushOut service time
	KindIPCSend                     // ipc: message send (copy into transit or inline)
	KindIPCRecv                     // ipc: message receive (move out of transit)
	KindCopy                        // core: cache.copy
	KindMove                        // core: cache.move
	KindDSMInvalidate               // dsm: remote copy invalidated for a writer
	KindDSMSync                     // dsm: remote writer synced + downgraded for a reader
	KindStoreRead                   // store: engine read (writeback queue or backend)
	KindStoreWrite                  // store: engine write enqueue or writeback batch
	KindStoreCompress               // store: flate page (de)compression
	KindStoreRetry                  // store: transient failure retried (arg1 = backoff ns)
	KindFrameZero                   // phys: background zeroer pre-zeroed a frame (arg1 = frame)
	KindFramePoolHit                // phys: AllocZeroed served from the pre-zeroed pool
	KindFramePoolMiss               // phys: AllocZeroed fell back to a synchronous bzero
	KindFillSubmit                  // core: async fill request submitted to a pager
	KindFillComplete                // core: pager completion published pages + settled stubs
	KindFaultAround                 // core: one fault mapped resident neighbours (arg2 = pages)
	KindSpecCancel                  // core: speculative fill dropped under frame pressure (arg2 = offset)
	KindPolicyWait                  // core: one replacement-policy call (insert/touch/remove/select); dur ≈ policy mutex wait
	NumKinds
)

var kindNames = [NumKinds]string{
	"fault", "zerofill", "cowbreak", "stubbreak", "historypush",
	"historyinsert", "historycollapse", "evict", "pullin", "pushout",
	"getwrite", "segcreate", "segpull", "segpush", "ipcsend", "ipcrecv",
	"copy", "move", "dsminvalidate", "dsmsync", "storeread", "storewrite",
	"storecompress", "storeretry", "framezero", "framepoolhit",
	"framepoolmiss", "fillsubmit", "fillcomplete", "faultaround",
	"speccancel", "policywait",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind?"
}

// Op identifies a latency histogram.
type Op uint8

// Histogram operations. The first six are the fault-service breakdown:
// total plus the five stages every fault's time is attributed to.
const (
	OpFault         Op = iota // whole fault, entry to return
	OpLockWait                // waiting for p.mu / shard mutexes / in-transit fragments
	OpResolve                 // resolution work under the locks (map lookups, bookkeeping)
	OpSubmit                  // issuing fill/write requests to the mapper (sync upcalls land here whole)
	OpComplete                // parked on a pager completion (device wait + publish)
	OpContent                 // page-content work (bzero of fresh frames, bcopy of originals)
	OpPullIn                  // pullIn upcall latency (MM side, any caller)
	OpPushOut                 // pushOut upcall latency (MM side)
	OpGetWrite                // getWriteAccess upcall latency (MM side)
	OpSegPull                 // mapper-side pullIn service time
	OpSegPush                 // mapper-side pushOut service time
	OpIPCSend                 // ipc send latency
	OpIPCRecv                 // ipc receive latency
	OpCopy                    // cache.copy latency
	OpMove                    // cache.move latency
	OpDSMInvalidate           // dsm invalidation transaction latency
	OpDSMSync                 // dsm sync+downgrade transaction latency
	OpStoreRead               // store-engine read latency
	OpStoreWrite              // store-engine write latency (enqueue and batch)
	OpStoreCompress           // flate page (de)compression latency
	OpStoreRetry              // backoff taken per retried transient failure
	OpFrameZero               // phys: background zeroer per-frame bzero latency
	OpFaultAround             // core: fault-around neighbour scan + batched map latency
	OpPolicyWait              // core: replacement-policy call latency (mutex wait + bookkeeping)
	NumOps
)

var opNames = [NumOps]string{
	"fault", "fault.lockwait", "fault.resolve", "fault.submit",
	"fault.complete", "fault.content", "pullin", "pushout", "getwrite", "seg.pull",
	"seg.push", "ipc.send", "ipc.recv", "copy", "move",
	"dsm.invalidate", "dsm.sync", "store.read", "store.write",
	"store.compress", "store.retry", "frame.zero", "fault.around",
	"policy.wait",
}

func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "op?"
}

// Stage indexes the per-fault stage accumulators of a FaultSpan.
type Stage uint8

// Fault-service stages (the paper's Table 6/7 cost decomposition, adapted
// to the sharded fault path of this implementation).
const (
	StageLockWait Stage = iota // lock and in-transit-fragment waits
	StageResolve               // work under the locks
	StageSubmit                // issuing mapper requests (a sync upcall is attributed here whole)
	StageComplete              // parked on a pager completion (device wait through wakeup)
	StageContent               // page zeroing / copying
	NumStages
)

// stageOps maps each stage to its histogram.
var stageOps = [NumStages]Op{OpLockWait, OpResolve, OpSubmit, OpComplete, OpContent}

// Event is one decoded trace event. TS and Dur are nanoseconds; TS is
// measured from the tracer's creation. Stages is populated for KindFault
// only (per-stage nanoseconds, saturated at ~4.29s per stage by the ring
// encoding).
type Event struct {
	TS     int64
	Dur    int64
	Kind   Kind
	Arg1   int64
	Arg2   int64
	Stages [NumStages]int64
}

// Options configures a Tracer.
type Options struct {
	// BufferEvents bounds the ring's memory: the total number of event
	// slots across all stripes (rounded up to a power of two per stripe;
	// default 1<<16 ≈ 4.5 MB).
	BufferEvents int
}

// Tracer is the per-system observability hub. The nil *Tracer is valid
// and disables everything; so does SetEnabled(false) on a live one.
type Tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	ring    ring
	hist    [NumOps]Histogram
}

// New creates an enabled Tracer.
func New(o Options) *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.ring.init(o.BufferEvents)
	t.enabled.Store(true)
	return t
}

// Enabled reports whether probes record anything; nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled turns event and histogram recording on or off; nil-safe.
// Already-recorded data is kept.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// now is nanoseconds since the tracer's epoch (monotonic).
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Clock returns a start timestamp for a later Span call, or 0 when
// disabled. The zero value is the "no timestamp" sentinel Span ignores,
// so an operation that began while tracing was off records nothing.
func (t *Tracer) Clock() int64 {
	if !t.Enabled() {
		return 0
	}
	if n := t.now(); n != 0 {
		return n
	}
	return 1
}

// Span records a completed operation begun at start (a value a prior
// Clock returned): one ring event with the measured duration plus one
// histogram observation. No-op when disabled or when start is 0.
func (t *Tracer) Span(k Kind, op Op, arg1, arg2, start int64) {
	if !t.Enabled() || start == 0 {
		return
	}
	now := t.now()
	t.hist[op].Observe(now - start)
	t.ring.put(Event{TS: start, Dur: now - start, Kind: k, Arg1: arg1, Arg2: arg2})
}

// Emit records an instantaneous event; nil-safe.
func (t *Tracer) Emit(k Kind, arg1, arg2 int64) {
	if !t.Enabled() {
		return
	}
	t.ring.put(Event{TS: t.now(), Kind: k, Arg1: arg1, Arg2: arg2})
}

// Observe adds one duration (nanoseconds) to op's histogram without
// emitting a ring event; nil-safe.
func (t *Tracer) Observe(op Op, ns int64) {
	if !t.Enabled() {
		return
	}
	t.hist[op].Observe(ns)
}

// Events returns a copy of the ring's current contents, oldest first.
// Safe to call while writers are active: slots being overwritten at that
// moment are skipped (they are counted as drops by the next Snapshot).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.events()
}

// FaultSpan accumulates one fault's stage times. It is a plain value held
// on the faulting goroutine's stack; a pointer to it is threaded down the
// fault path. Both the zero FaultSpan (tracer nil or disabled at fault
// entry) and a nil *FaultSpan (shared helpers invoked outside any fault)
// make every method a one-branch no-op.
type FaultSpan struct {
	t      *Tracer
	start  int64
	last   int64
	stages [NumStages]int64
}

// FaultBegin opens a fault span; nil-safe.
func (t *Tracer) FaultBegin() FaultSpan {
	if !t.Enabled() {
		return FaultSpan{}
	}
	n := t.now()
	return FaultSpan{t: t, start: n, last: n}
}

// Mark attributes the time since the previous mark (or the span's start)
// to the given stage.
func (s *FaultSpan) Mark(stage Stage) {
	if s == nil || s.t == nil {
		return
	}
	n := s.t.now()
	s.stages[stage] += n - s.last
	s.last = n
}

// End closes the span: unattributed time goes to StageResolve, the total
// and every stage are observed into their histograms, and one KindFault
// event carrying the stage breakdown is emitted. Ending the zero span is
// a no-op; End is idempotent.
func (s *FaultSpan) End(arg1, arg2 int64) {
	if s == nil || s.t == nil {
		return
	}
	s.Mark(StageResolve)
	t := s.t
	s.t = nil
	total := s.last - s.start
	t.hist[OpFault].Observe(total)
	for st := Stage(0); st < NumStages; st++ {
		t.hist[stageOps[st]].Observe(s.stages[st])
	}
	t.ring.put(Event{TS: s.start, Dur: total, Kind: KindFault,
		Arg1: arg1, Arg2: arg2, Stages: s.stages})
}
