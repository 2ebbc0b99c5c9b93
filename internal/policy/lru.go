package policy

import "sync"

// LRU is the global least-recently-used queue, extracted move-for-move
// from the PVM's original pageout path: head is most recently used, the
// victim scan walks from the tail, a touch moves the page to the head,
// and a failed eviction requeues at the head (MRU) so other candidates
// get their turn. Hardware referenced bits are treated as touches — with
// periodic harvesting the queue orders by actual references, not just by
// faults, which is the feedback the original list never had.
type LRU struct {
	mu         sync.Mutex
	head, tail *Node
	ctr        counters
}

const lruQueue int8 = 1

// NewLRU creates the policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Replacer.
func (l *LRU) Name() string { return "lru" }

// push threads n at the head (MRU); l.mu held.
func (l *LRU) push(n *Node) {
	if n.q != 0 {
		l.remove(n)
	}
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	n.q = lruQueue
	l.ctr.n.Add(1)
}

// remove unthreads n; l.mu held.
func (l *LRU) remove(n *Node) {
	if n.q == 0 {
		return
	}
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
	l.ctr.n.Add(-1)
}

// OnInsert implements Replacer.
func (l *LRU) OnInsert(n *Node) {
	l.mu.Lock()
	l.push(n)
	l.mu.Unlock()
}

// OnRemove implements Replacer.
func (l *LRU) OnRemove(n *Node) {
	l.mu.Lock()
	l.remove(n)
	l.mu.Unlock()
}

// OnTouch implements Replacer: move to MRU, exactly the old lruTouch.
func (l *LRU) OnTouch(n *Node) {
	l.mu.Lock()
	l.push(n)
	l.mu.Unlock()
}

// OnHarvest implements Replacer: a harvested referenced bit is a touch.
func (l *LRU) OnHarvest(n *Node, referenced, dirty bool) {
	if !referenced {
		return
	}
	l.mu.Lock()
	if n.q != 0 {
		n.dirtyHint = dirty
		l.push(n)
	}
	l.mu.Unlock()
}

// SelectVictims implements Replacer: scan from the LRU tail, skipping
// unusable pages in place — the PVM reclaim pass's original walk.
func (l *LRU) SelectVictims(dst []*Node, max int, usable func(*Node) bool) []*Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := l.tail; n != nil && len(dst) < max; n = n.prev {
		if usable(n) {
			dst = append(dst, n)
			l.ctr.selected.Add(1)
		}
	}
	return dst
}

// Requeue implements Replacer: back to MRU, the original failed-push
// behaviour.
func (l *LRU) Requeue(n *Node) { l.OnTouch(n) }

// Unselect implements Replacer: LRU selection leaves no mark, so the
// abandoned victim already sits where the original scan left it.
func (l *LRU) Unselect(n *Node) {}

// Drain implements Replacer: LRU selection leaves no mark, so the full
// sweep already returns every node.
func (l *LRU) Drain(dst []*Node) []*Node { return l.SelectVictims(dst, len(dst)+l.Len(), anyNode) }

// Len implements Replacer: a lock-free load (see counters).
func (l *LRU) Len() int { return int(l.ctr.n.Load()) }

// Stats implements Replacer: lock-free loads (see counters).
func (l *LRU) Stats() Stats { return l.ctr.snapshot() }
