package policy

import "sync"

// TwoQ is a scan-resistant two-queue policy after Johnson & Shasha's 2Q:
// pages enter a FIFO admission queue (A1) on first residency and are
// promoted to the protected main queue (Am) only on evidence of reuse, so
// a one-pass scan flows through A1 and out again without displacing the
// hot set in Am. This variant promotes lazily: a touch is a lock-free
// reference-bit store, and the victim scan converts set bits in A1 into
// promotions — the classic ghost list (A1out) is omitted, so the first
// reuse must happen while the page is still resident.
//
// Victims come from the A1 tail first (oldest once-touched page); only
// when A1 is exhausted does the scan fall back to the Am tail, where a
// set bit buys one second chance.
type TwoQ struct {
	mu  sync.Mutex
	a1  nodeList // admission FIFO: head newest, victims from the tail
	am  nodeList // main queue: head most recently promoted/spared
	ctr counters
}

const (
	twoQAdmit int8 = 1
	twoQMain  int8 = 2
)

// nodeList is a doubly-linked queue of Nodes (head/tail, no ring).
type nodeList struct {
	head, tail *Node
	n          int
}

func (l *nodeList) pushHead(n *Node, q int8) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	n.q = q
	l.n++
}

func (l *nodeList) remove(n *Node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
	n.q = 0
	l.n--
}

// NewTwoQ creates an empty replacement order.
func NewTwoQ() *TwoQ { return &TwoQ{} }

// queueOf returns the list holding n, or nil; t.mu held.
func (t *TwoQ) queueOf(n *Node) *nodeList {
	switch n.q {
	case twoQAdmit:
		return &t.a1
	case twoQMain:
		return &t.am
	}
	return nil
}

// OnInsert threads a page that became resident (or was unpinned): it
// enters the admission FIFO.
func (t *TwoQ) OnInsert(n *Node) {
	t.mu.Lock()
	if l := t.queueOf(n); l != nil {
		l.remove(n)
	} else {
		t.ctr.n.Add(1)
	}
	n.sel = false
	t.a1.pushHead(n, twoQAdmit)
	t.mu.Unlock()
}

// OnRemove unthreads a page leaving residency (evicted, pinned or torn
// down); a no-op if the node is not linked.
func (t *TwoQ) OnRemove(n *Node) {
	t.mu.Lock()
	if l := t.queueOf(n); l != nil {
		l.remove(n)
		t.ctr.n.Add(-1)
	}
	n.sel = false
	t.mu.Unlock()
}

// OnTouch records a reference: a fault-time touch or a harvested
// hardware referenced bit. It is one lock-free reference-bit store; the
// promotion or second chance it earns is applied by the next victim
// scan.
func (t *TwoQ) OnTouch(n *Node) { n.ref.Store(true) }

// SelectVictims appends up to max victims in eviction order to dst and
// returns it. usable vets each candidate (the PVM skips pinned, busy and
// unpushable pages); unusable nodes keep their place. The A1 pass walks
// the admission FIFO from its tail, promoting every referenced page to
// the Am head and selecting unreferenced usable ones; the Am pass then
// walks the main queue from its tail with clock-style second chances.
func (t *TwoQ) SelectVictims(dst []*Node, max int, usable func(*Node) bool) []*Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := t.a1.tail; n != nil && len(dst) < max; {
		prev := n.prev
		if n.ref.CompareAndSwap(true, false) {
			t.a1.remove(n)
			t.am.pushHead(n, twoQMain)
			t.ctr.promotions.Add(1)
		} else if !n.sel && usable(n) {
			n.sel = true
			dst = append(dst, n)
		}
		n = prev
	}
	for n := t.am.tail; n != nil && len(dst) < max; {
		prev := n.prev
		if n.ref.CompareAndSwap(true, false) {
			t.am.remove(n)
			t.am.pushHead(n, twoQMain)
			t.ctr.secondChances.Add(1)
		} else if !n.sel && usable(n) {
			n.sel = true
			dst = append(dst, n)
		}
		n = prev
	}
	return dst
}

// Requeue sends a victim whose eviction failed to the head of its queue,
// so other candidates get their turn before it is retried.
func (t *TwoQ) Requeue(n *Node) {
	t.mu.Lock()
	n.sel = false
	if l := t.queueOf(n); l != nil {
		q := n.q
		l.remove(n)
		l.pushHead(n, q)
	}
	t.mu.Unlock()
}

// Unselect abandons a selection without penalizing the candidate: the
// node keeps its queue position and reference bit and becomes selectable
// again. Used when reclaim progresses by other means (a segmentCreate
// upcall) before acting on the victim.
func (t *TwoQ) Unselect(n *Node) {
	t.mu.Lock()
	n.sel = false
	t.mu.Unlock()
}

// Len returns the number of linked nodes: a lock-free load (see
// counters).
func (t *TwoQ) Len() int { return int(t.ctr.n.Load()) }

// Stats returns the cumulative counters: lock-free loads (see counters).
func (t *TwoQ) Stats() Stats { return t.ctr.snapshot() }

// InMain reports whether n currently sits in the protected main queue;
// for tests.
func (t *TwoQ) InMain(n *Node) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return n.q == twoQMain
}
