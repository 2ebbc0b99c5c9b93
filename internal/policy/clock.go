package policy

import "sync"

// Clock is second-chance replacement over a circular ring: a hand sweeps
// the ring, spares any page whose reference bit is set (clearing the bit,
// so a referenced page survives exactly one scan pass), and selects the
// first unreferenced page it meets. The payoff over LRU is on the fault
// path: a touch is one lock-free atomic store on the page's own node,
// where LRU takes the global queue mutex and splices the list — under
// many concurrent faulters the queue mutex is the contended line.
type Clock struct {
	mu   sync.Mutex
	hand *Node // next node the sweep examines; nil iff the ring is empty
	ctr  counters
}

const clockQueue int8 = 1

// NewClock creates the policy.
func NewClock() *Clock { return &Clock{} }

// Name implements Replacer.
func (c *Clock) Name() string { return "clock" }

// OnInsert implements Replacer: the new page enters just behind the hand,
// so it is the last page the current lap examines — a full sweep passes
// before it can be selected, the ring equivalent of entering at MRU.
func (c *Clock) OnInsert(n *Node) {
	c.mu.Lock()
	if n.q != 0 {
		c.unlink(n)
	}
	if c.hand == nil {
		n.prev, n.next = n, n
		c.hand = n
	} else {
		at := c.hand
		n.prev, n.next = at.prev, at
		at.prev.next = n
		at.prev = n
	}
	n.q = clockQueue
	c.ctr.n.Add(1)
	c.mu.Unlock()
}

// unlink removes n from the ring; c.mu held, n linked.
func (c *Clock) unlink(n *Node) {
	if c.ctr.n.Load() == 1 {
		c.hand = nil
	} else {
		if c.hand == n {
			c.hand = n.next
		}
		n.prev.next = n.next
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
	n.q = 0
	n.sel = false
	c.ctr.n.Add(-1)
}

// OnRemove implements Replacer.
func (c *Clock) OnRemove(n *Node) {
	c.mu.Lock()
	if n.q != 0 {
		c.unlink(n)
	}
	c.mu.Unlock()
}

// OnTouch implements Replacer: one atomic store, no lock — the whole
// point of the policy.
func (c *Clock) OnTouch(n *Node) { n.ref.Store(true) }

// OnHarvest implements Replacer.
func (c *Clock) OnHarvest(n *Node, referenced, dirty bool) {
	if referenced {
		n.ref.Store(true)
	}
	c.mu.Lock()
	if n.q != 0 {
		n.dirtyHint = dirty
	}
	c.mu.Unlock()
}

// SelectVictims implements Replacer: sweep from the hand. A set reference
// bit spares the page once (the bit is cleared and the hand moves on); an
// unreferenced usable page is selected. The sweep is bounded at two laps:
// the first can clear every bit, the second must then find any usable
// page, so a third lap could make no further progress.
func (c *Clock) SelectVictims(dst []*Node, max int, usable func(*Node) bool) []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	steps := 2*int(c.ctr.n.Load()) + 1
	for len(dst) < max && c.hand != nil && steps > 0 {
		steps--
		n := c.hand
		c.hand = n.next
		if n.sel {
			continue
		}
		if n.ref.CompareAndSwap(true, false) {
			c.ctr.secondChances.Add(1)
			continue
		}
		if usable(n) {
			n.sel = true
			dst = append(dst, n)
			c.ctr.selected.Add(1)
		}
	}
	return dst
}

// Drain implements Replacer.
func (c *Clock) Drain(dst []*Node) []*Node {
	var held []*Node
	c.mu.Lock()
	for n := c.hand; n != nil; {
		if n.sel {
			held = append(held, n)
		}
		if n = n.next; n == c.hand {
			break
		}
	}
	c.mu.Unlock()
	return append(c.SelectVictims(dst, len(dst)+c.Len(), anyNode), held...)
}

// Requeue implements Replacer: the failed victim keeps its ring slot but
// gets its reference bit back, buying it a full lap while other
// candidates are tried.
func (c *Clock) Requeue(n *Node) {
	c.mu.Lock()
	n.sel = false
	c.mu.Unlock()
	n.ref.Store(true)
}

// Unselect implements Replacer: clear the selection mark only; the node
// keeps its ring slot and bit.
func (c *Clock) Unselect(n *Node) {
	c.mu.Lock()
	n.sel = false
	c.mu.Unlock()
}

// Len implements Replacer: a lock-free load (see counters).
func (c *Clock) Len() int { return int(c.ctr.n.Load()) }

// Stats implements Replacer: lock-free loads (see counters).
func (c *Clock) Stats() Stats { return c.ctr.snapshot() }
