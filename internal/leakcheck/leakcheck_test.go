package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// helper gives the spawned goroutine a module frame so count sees it.
//
//go:noinline
func helper(stop chan struct{}) { <-stop }

func TestCountSeesModuleGoroutines(t *testing.T) {
	before, _ := count()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		helper(stop)
	}()
	// The new goroutine parks inside helper, a module frame; wait until
	// the dump shows it there and the count includes it.
	dl := time.Now().Add(2 * time.Second)
	for {
		cur, dump := count()
		if cur >= before+1 && strings.Contains(string(dump), "leakcheck.helper") {
			break
		}
		if time.Now().After(dl) {
			t.Fatalf("count never saw the parked helper (%d -> %d):\n%s", before, cur, dump)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
}

func TestCheckPassesWhenBalanced(t *testing.T) {
	Check(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		helper(stop)
	}()
	// Wind the goroutine down before the test ends; Check's cleanup then
	// observes the baseline count again.
	close(stop)
	<-done
}

// fakeTB records what Check reports instead of failing the real test.
type fakeTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (f *fakeTB) Helper()           {}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

// finalized owns a module goroutine that only its finalizer stops, the
// shape of a store whose owner dropped it without closing its engine.
type finalized struct{ stop chan struct{} }

// startFinalized starts the goroutine and returns its owner and a
// channel closed when it exits.
func startFinalized() (o *finalized, exited chan struct{}) {
	o = &finalized{stop: make(chan struct{})}
	exited = make(chan struct{})
	go func(stop chan struct{}) {
		defer close(exited)
		helper(stop)
	}(o.stop)
	runtime.SetFinalizer(o, func(o *finalized) { close(o.stop) })
	return o, exited
}

// waitCount polls until count reaches at least n.
func waitCount(t *testing.T, n int) {
	t.Helper()
	dl := time.Now().Add(2 * time.Second)
	for {
		cur, dump := count()
		if cur >= n {
			return
		}
		if time.Now().After(dl) {
			t.Fatalf("count stayed at %d, want >= %d:\n%s", cur, n, dump)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckBaselineExcludesFinalizedGoroutines: a goroutine a finalizer
// reaps during the checked test must not hide a leak of the same size.
// Check settles the collector before its baseline, so the reaped
// goroutine is never counted and the leak is reported.
func TestCheckBaselineExcludesFinalizedGoroutines(t *testing.T) {
	defer func(d time.Duration) { deadline = d }(deadline)
	deadline = 500 * time.Millisecond

	before, _ := count()
	o, exited := startFinalized()
	waitCount(t, before+1)
	runtime.KeepAlive(o) // unreachable from here on: the GC may reap it

	fake := &fakeTB{TB: t}
	Check(fake)

	// The collector reaps the finalized goroutine (already gone if Check
	// settled it), then the test leaks one of its own.
	dl := time.Now().Add(2 * time.Second)
	for reaped := false; !reaped; {
		runtime.GC()
		select {
		case <-exited:
			reaped = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(dl) {
				t.Fatal("finalizer never stopped its goroutine")
			}
		}
	}
	cur, _ := count()
	stop := make(chan struct{})
	leaked := make(chan struct{})
	go func() {
		defer close(leaked)
		helper(stop)
	}()
	defer func() { close(stop); <-leaked }()
	waitCount(t, cur+1)

	for i := len(fake.cleanups) - 1; i >= 0; i-- {
		fake.cleanups[i]()
	}
	if len(fake.errs) == 0 {
		t.Fatal("Check did not report the leaked goroutine: its baseline counted the finalized one")
	}
}
