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
// The registered cleanup polls until the number of goroutines executing
// module code returns to the baseline observed at the Check call, and
// fails the test with a full stack dump if the deadline passes first.
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

// deadline bounds how long the cleanup waits for stragglers: long enough
// for queue drains and ticker shutdowns, short enough to flag a real leak
// promptly.
const deadline = 5 * time.Second

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

// Check snapshots the module goroutines live right now and registers a
// cleanup that waits for the count to return to that baseline. Call it
// before the test starts any background machinery, and stop daemons with
// their own cleanups registered after Check (cleanups run LIFO), so the
// leak assertion observes the fully-torn-down state.
func Check(t testing.TB) {
	t.Helper()
	baseline, _ := count()
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
