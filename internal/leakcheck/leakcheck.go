// Package leakcheck provides a deadline-based goroutine-leak assertion
// for tests that exercise background machinery: store-engine workers,
// pageout daemons, mapper ports. Each of those has an owner that stops
// it: engine workers live until their engine is closed (by the segment,
// cache or mapper that owns it), daemons until stopped, a mapper's port
// goroutine until the port is destroyed. A test that still has module
// goroutines running after its teardown has leaked one, or has not
// closed something it owns.
//
// Usage: call Check(t) at the top of the test, before starting anything.
// Check first lets the garbage collector reap what finalizers own (the
// engines of stores an earlier test dropped without closing), then
// takes its baseline. The registered cleanup polls until the number of
// goroutines executing module code returns to that baseline, and fails
// the test with a full stack dump if the deadline passes first.
package leakcheck

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// marker selects the goroutines the assertion watches: anything with
// module code on its stack. Goroutines belonging to the testing harness,
// runtime timers, and other packages under test in the same binary never
// match, which keeps the baseline comparison stable.
const marker = "chorusvm/"

// deadline bounds how long Check waits for finalizers to settle, and how
// long the cleanup waits for stragglers: long enough for queue drains and
// ticker shutdowns, short enough to flag a real leak promptly. A variable
// so this package's tests can shorten it.
var deadline = 5 * time.Second

// settleStep is how long settle lets the finalizer goroutine run after
// each collection before it counts again.
const settleStep = 5 * time.Millisecond

// count returns how many live goroutines have module code on their stack,
// along with the dump it inspected.
func count() (int, []byte) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(marker)) {
			n++
		}
	}
	return n, buf
}

// settle runs the garbage collector until the module-goroutine count has
// stopped falling for two steps in a row, or until dl, and returns the
// count. Goroutines a finalizer stops (a dropped store's engine workers)
// are then gone before Check takes its baseline: were they counted, they
// could exit during the checked test and hide a leak of the same size.
func settle(dl time.Time) int {
	prev, _ := count()
	for steady := 0; steady < 2 && time.Now().Before(dl); {
		runtime.GC()
		time.Sleep(settleStep)
		cur, _ := count()
		if cur < prev {
			steady = 0
		} else {
			steady++
		}
		prev = cur
	}
	return prev
}

// Check snapshots the module goroutines live once finalizers have
// settled and registers a cleanup that waits for the count to return to
// that baseline. Call it before the test starts any background
// machinery, and stop daemons with their own cleanups registered after
// Check (cleanups run LIFO), so the leak assertion observes the
// fully-torn-down state.
func Check(t testing.TB) {
	t.Helper()
	baseline := settle(time.Now().Add(deadline))
	t.Cleanup(func() {
		dl := time.Now().Add(deadline)
		for {
			cur, dump := count()
			if cur <= baseline {
				return
			}
			if time.Now().After(dl) {
				t.Errorf("leakcheck: %d module goroutines still running (baseline %d):\n\n%s",
					cur, baseline, dump)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}
