// Package policy implements the PVM's page-replacement order. The
// paper's generic memory-management interface deliberately keeps
// replacement below the GMI (section 3.3.3) and out of the
// machine-independent fault path; this package makes that separation
// literal: the PVM threads every resident page through a TwoQ and asks it
// for victims, and the TwoQ never sees PVM structures — only opaque
// Nodes.
//
// The order is a scan-resistant two-queue policy after Johnson &
// Shasha's 2Q: a FIFO admission queue in front of a protected main
// queue, with promotion on evidence of reuse (see TwoQ). It replaced an
// exact global LRU queue and a clock ring: under the Zipf + scan pressure
// ablation (EXPERIMENTS.md) it took the fewest hard faults of the three
// in every overcommitted cell.
//
// Concurrency contract: OnTouch may be called concurrently with every
// method including itself (the PVM's fast fault path holds only the
// structural read-lock); it is one lock-free reference-bit store. All
// other methods may also be called concurrently and take the internal
// mutex. The usable callback passed to SelectVictims runs with that mutex
// held and must not call back into the TwoQ.
package policy

import "sync/atomic"

// Node is the per-page handle a TwoQ threads through its queues. The
// PVM embeds one Node in every page descriptor and never touches its
// fields; Owner is set once at page creation and points back at the
// descriptor so SelectVictims results can be mapped to pages.
type Node struct {
	// Owner is the opaque back-pointer to the descriptor embedding this
	// node. Set once, before the node is first inserted; never changed.
	Owner any

	prev, next *Node
	// q identifies the queue threading the node: 0 = none, twoQAdmit or
	// twoQMain otherwise. Written only under the TwoQ's mutex.
	q int8
	// ref is the software reference bit: set lock-free by OnTouch (fault
	// references and harvested hardware referenced bits), cleared by the
	// victim scan that promotes the page or gives it its second chance.
	ref atomic.Bool
	// sel marks a node already selected by an earlier SelectVictims
	// call whose selection is not yet consumed (the PVM drops its locks
	// while the victim's push-out is in flight), so a concurrent scan
	// cannot offer it twice. Cleared by OnInsert, OnRemove, Requeue and
	// Unselect. Written under the TwoQ's mutex.
	sel bool
}

// Linked reports whether the node is currently threaded in a queue. The
// caller must exclude concurrent OnInsert/OnRemove (the PVM checks
// invariants under its exclusive lock).
func (n *Node) Linked() bool { return n.q != 0 }

// Stats are the TwoQ's cumulative counters (monotonic, read via Stats).
type Stats struct {
	// SecondChances counts main-queue nodes spared by a set reference
	// bit during a victim scan.
	SecondChances uint64
	// Promotions counts admission-queue pages promoted to the main
	// queue on evidence of reuse.
	Promotions uint64
}

// counters is the internal, atomically-readable form of Stats plus the
// linked-node count. Writers update under the TwoQ's mutex (so related
// counters stay coherent with the queues), but every field is loaded
// atomically: Len and Stats never take the mutex, so the stats path and
// the invariant checker never convoy the fault path.
type counters struct {
	n             atomic.Int64
	secondChances atomic.Uint64
	promotions    atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		SecondChances: c.secondChances.Load(),
		Promotions:    c.promotions.Load(),
	}
}
