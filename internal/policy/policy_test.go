package policy

import (
	"math/rand"
	"sync"
	"testing"
)

// node makes a linked test node with an int owner id.
func mk(id int) *Node { return &Node{Owner: id} }

func ids(ns []*Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Owner.(int)
	}
	return out
}

func all(*Node) bool { return true }

func none(*Node) bool { return false }

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewNames(t *testing.T) {
	for _, name := range Names() {
		r, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, r.Name())
		}
		if !Valid(name) {
			t.Fatalf("Valid(%q) = false", name)
		}
	}
	if _, err := New("fifo"); err == nil {
		t.Fatal("New(fifo) succeeded; want error")
	}
	if Valid("fifo") {
		t.Fatal("Valid(fifo) = true")
	}
}

// TestLRUMatchesModel drives the extracted LRU with a random
// insert/touch/remove sequence and checks its victim order against a
// naive slice model of the original list at every step.
func TestLRUMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLRU()
	var model []int // front = MRU, back = LRU victim order
	nodes := map[int]*Node{}
	next := 0

	modelTouch := func(id int) {
		for i, v := range model {
			if v == id {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		model = append([]int{id}, model...)
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(model) == 0: // insert
			n := mk(next)
			nodes[next] = n
			l.OnInsert(n)
			modelTouch(next)
			next++
		case op == 1: // touch a random resident node
			id := model[rng.Intn(len(model))]
			l.OnTouch(nodes[id])
			modelTouch(id)
		default: // remove a random resident node
			id := model[rng.Intn(len(model))]
			l.OnRemove(nodes[id])
			for i, v := range model {
				if v == id {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
			delete(nodes, id)
		}
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, l.Len(), len(model))
		}
		got := ids(l.SelectVictims(nil, len(model), all))
		want := make([]int, len(model))
		for i := range model {
			want[i] = model[len(model)-1-i] // victims in LRU-to-MRU order
		}
		if !equal(got, want) {
			t.Fatalf("step %d: victims %v, model %v", step, got, want)
		}
	}
}

// TestLRUSkipsUnusableInPlace checks the original scan behaviour: an
// unusable candidate keeps its queue position and the scan moves past it.
func TestLRUSkipsUnusableInPlace(t *testing.T) {
	l := NewLRU()
	a, b, c := mk(0), mk(1), mk(2)
	l.OnInsert(a)
	l.OnInsert(b)
	l.OnInsert(c) // order now c, b, a; victim order a, b, c
	skipA := func(n *Node) bool { return n != a }
	if got := ids(l.SelectVictims(nil, 1, skipA)); !equal(got, []int{1}) {
		t.Fatalf("victims with a unusable = %v, want [1]", got)
	}
	// a kept its tail slot: with the filter lifted it is first again.
	if got := ids(l.SelectVictims(nil, 1, all)); !equal(got, []int{0}) {
		t.Fatalf("victims after filter lifted = %v, want [0]", got)
	}
}

// TestLRURequeueAtMRU checks the failed-push behaviour: a requeued victim
// goes to the back of the eviction order.
func TestLRURequeueAtMRU(t *testing.T) {
	l := NewLRU()
	a, b := mk(0), mk(1)
	l.OnInsert(a)
	l.OnInsert(b)
	l.Requeue(a)
	if got := ids(l.SelectVictims(nil, 2, all)); !equal(got, []int{1, 0}) {
		t.Fatalf("victims after requeue = %v, want [1 0]", got)
	}
}

// TestClockSecondChance proves the second-chance semantics: a referenced
// page survives exactly one scan pass — the pass that finds its bit set
// spares it and clears the bit, the next pass takes it.
func TestClockSecondChance(t *testing.T) {
	c := NewClock()
	a, b := mk(0), mk(1)
	c.OnInsert(a)
	c.OnInsert(b)
	c.OnTouch(a)

	// Pass 1: a is referenced, so the sweep clears a's bit and selects b.
	if got := ids(c.SelectVictims(nil, 1, all)); !equal(got, []int{1}) {
		t.Fatalf("pass 1 victim = %v, want [1] (a is referenced)", got)
	}
	c.OnRemove(b)
	// Pass 2: a's bit was consumed by its one second chance.
	if got := ids(c.SelectVictims(nil, 1, all)); !equal(got, []int{0}) {
		t.Fatalf("pass 2 victim = %v, want [0] (a's chance is spent)", got)
	}
	if s := c.Stats(); s.SecondChances != 1 {
		t.Fatalf("SecondChances = %d, want 1", s.SecondChances)
	}
}

// TestClockSweepOrderFIFO: with no reference bits set, the sweep takes
// pages in insertion order.
func TestClockSweepOrderFIFO(t *testing.T) {
	c := NewClock()
	for i := 0; i < 4; i++ {
		c.OnInsert(mk(i))
	}
	if got := ids(c.SelectVictims(nil, 4, all)); !equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("sweep order = %v, want [0 1 2 3]", got)
	}
}

// TestClockNoDuplicateSelection: a wrapping sweep must not return the
// same node twice even when it stays linked between passes.
func TestClockNoDuplicateSelection(t *testing.T) {
	c := NewClock()
	a := mk(0)
	c.OnInsert(a)
	if got := c.SelectVictims(nil, 4, all); len(got) != 1 {
		t.Fatalf("selected %d victims from a 1-page ring, want 1", len(got))
	}
}

// TestClockRemoveAdjustsHand: removing the node under the hand must not
// wedge or skip the ring.
func TestClockRemoveAdjustsHand(t *testing.T) {
	c := NewClock()
	ns := make([]*Node, 3)
	for i := range ns {
		ns[i] = mk(i)
		c.OnInsert(ns[i])
	}
	// Hand sits at 0 (first inserted). Removing it moves the hand on.
	c.OnRemove(ns[0])
	if got := ids(c.SelectVictims(nil, 2, all)); !equal(got, []int{1, 2}) {
		t.Fatalf("after removing hand node: %v, want [1 2]", got)
	}
	c.OnRemove(ns[1])
	c.OnRemove(ns[2])
	if c.Len() != 0 {
		t.Fatalf("Len = %d after removing all, want 0", c.Len())
	}
	if got := c.SelectVictims(nil, 1, all); len(got) != 0 {
		t.Fatalf("empty ring selected %v", ids(got))
	}
}

// TestTwoQPromotion proves the 2Q promotion semantics: a page touched
// while in the admission FIFO is promoted to the main queue by the next
// victim scan instead of being evicted, and an untouched page flows
// through the FIFO and out.
func TestTwoQPromotion(t *testing.T) {
	q := NewTwoQ()
	hot, cold := mk(0), mk(1)
	q.OnInsert(hot)
	q.OnInsert(cold)
	q.OnTouch(hot)

	got := ids(q.SelectVictims(nil, 1, all))
	if !equal(got, []int{1}) {
		t.Fatalf("victim = %v, want [1] (cold; hot was promoted)", got)
	}
	if !q.InMain(hot) {
		t.Fatal("touched page not promoted to the main queue")
	}
	if q.InMain(cold) {
		t.Fatal("untouched page promoted")
	}
	if s := q.Stats(); s.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", s.Promotions)
	}
}

// TestTwoQScanResistance: a one-pass scan through the admission queue
// cannot displace the promoted hot set.
func TestTwoQScanResistance(t *testing.T) {
	q := NewTwoQ()
	hot := make([]*Node, 4)
	for i := range hot {
		hot[i] = mk(i)
		q.OnInsert(hot[i])
		q.OnTouch(hot[i])
	}
	// A maintenance sweep promotes the hot set, then 8 cold pages stream
	// through the admission queue.
	q.SelectVictims(nil, len(hot), none)
	for i := range hot {
		if !q.InMain(hot[i]) {
			t.Fatalf("hot page %d not in main queue", i)
		}
	}
	cold := make([]*Node, 8)
	for i := range cold {
		cold[i] = mk(100 + i)
		q.OnInsert(cold[i])
	}
	got := ids(q.SelectVictims(nil, 8, all))
	want := []int{100, 101, 102, 103, 104, 105, 106, 107}
	if !equal(got, want) {
		t.Fatalf("scan victims = %v, want the cold pages %v", got, want)
	}
	for i := range hot {
		if !q.InMain(hot[i]) {
			t.Fatalf("hot page %d displaced by the scan", i)
		}
	}
}

// TestTwoQMainSecondChance: a referenced main-queue page is spared once.
func TestTwoQMainSecondChance(t *testing.T) {
	q := NewTwoQ()
	a, b := mk(0), mk(1)
	for _, n := range []*Node{a, b} {
		q.OnInsert(n)
		q.OnTouch(n)
	}
	q.SelectVictims(nil, 1, none) // promote both; a lands at the Am tail
	q.OnTouch(a)
	if got := ids(q.SelectVictims(nil, 1, all)); !equal(got, []int{1}) {
		t.Fatalf("victim = %v, want [1] (a had a second chance)", got)
	}
}

// TestTwoQPromotionEmptiesSel: a node selected, requeued, touched and
// promoted must remain selectable later (the sel scratch bit is cleared).
func TestTwoQRequeueClears(t *testing.T) {
	q := NewTwoQ()
	a := mk(0)
	q.OnInsert(a)
	if got := ids(q.SelectVictims(nil, 1, all)); !equal(got, []int{0}) {
		t.Fatalf("first selection = %v", got)
	}
	q.Requeue(a)
	if got := ids(q.SelectVictims(nil, 1, all)); !equal(got, []int{0}) {
		t.Fatalf("selection after requeue = %v, want [0]", got)
	}
}

// TestDrainReturnsHeldVictims: a victim selected by an earlier sweep
// (its push-out in flight) is skipped by later sweeps, but Drain must
// still return it, or a migration would leave it behind.
func TestDrainReturnsHeldVictims(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				r.OnInsert(mk(i))
			}
			r.OnTouch(r.SelectVictims(nil, 2, all)[0]) // one second-chance too
			got := ids(r.Drain(nil))
			seen := map[int]bool{}
			for _, id := range got {
				seen[id] = true
			}
			if len(got) != 5 || len(seen) != 5 {
				t.Fatalf("Drain = %v, want each of the 5 nodes once", got)
			}
		})
	}
}

// TestConcurrentTouch races lock-free touches against scans and
// insert/remove churn under -race.
func TestConcurrentTouch(t *testing.T) {
	for _, name := range Names() {
		r, _ := New(name)
		nodes := make([]*Node, 64)
		for i := range nodes {
			nodes[i] = mk(i)
			r.OnInsert(nodes[i])
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 20000; i++ {
				r.OnTouch(nodes[i%len(nodes)])
			}
		}()
		for i := 0; i < 2000; i++ {
			r.SelectVictims(nil, 4, func(*Node) bool { return false })
			r.OnHarvest(nodes[i%len(nodes)], i%2 == 0, i%3 == 0)
		}
		<-done
		for _, n := range nodes {
			r.OnRemove(n)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: Len = %d after removing all", name, r.Len())
		}
	}
}

// TestConcurrentInsertSelect hammers one instance from concurrent
// inserters/touchers plus a victim-scan goroutine, for the race
// detector. Workers own disjoint node sets (the PVM's page lifecycle
// guarantees per-node serialization); selection and requeue run against
// the whole population concurrently.
func TestConcurrentInsertSelect(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					nodes := make([]*Node, perWorker)
					for i := range nodes {
						nodes[i] = mk(w*perWorker + i)
						r.OnInsert(nodes[i])
					}
					for i := 0; i < 2000; i++ {
						r.OnTouch(nodes[rng.Intn(perWorker)])
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					for _, n := range r.SelectVictims(nil, 16, all) {
						r.Requeue(n)
					}
				}
			}()
			wg.Wait()
			<-done
			if got := r.Len(); got != workers*perWorker {
				t.Fatalf("Len=%d after quiesce, want %d", got, workers*perWorker)
			}
		})
	}
}
