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

// TestTwoQRequeueClears: a node selected, requeued, touched and
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

// TestConcurrentTouch races lock-free touches against scans and
// insert/remove churn under -race.
func TestConcurrentTouch(t *testing.T) {
	q := NewTwoQ()
	nodes := make([]*Node, 64)
	for i := range nodes {
		nodes[i] = mk(i)
		q.OnInsert(nodes[i])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			q.OnTouch(nodes[i%len(nodes)])
		}
	}()
	for i := 0; i < 2000; i++ {
		q.SelectVictims(nil, 4, none)
		if i%2 == 0 {
			q.OnTouch(nodes[i%len(nodes)]) // a harvested referenced bit
		}
	}
	<-done
	for _, n := range nodes {
		q.OnRemove(n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after removing all", q.Len())
	}
}

// TestConcurrentInsertSelect hammers one instance from concurrent
// inserters/touchers plus a victim-scan goroutine, for the race
// detector. Workers own disjoint node sets (the PVM's page lifecycle
// guarantees per-node serialization); selection and requeue run against
// the whole population concurrently. The subtest is named for the order
// it runs.
func TestConcurrentInsertSelect(t *testing.T) {
	t.Run("2q", func(t *testing.T) {
		q := NewTwoQ()
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
					q.OnInsert(nodes[i])
				}
				for i := 0; i < 2000; i++ {
					q.OnTouch(nodes[rng.Intn(perWorker)])
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				for _, n := range q.SelectVictims(nil, 16, all) {
					q.Requeue(n)
				}
			}
		}()
		wg.Wait()
		<-done
		if got := q.Len(); got != workers*perWorker {
			t.Fatalf("Len=%d after quiesce, want %d", got, workers*perWorker)
		}
	})
}
