package dsm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/leakcheck"
	"chorusvm/internal/store"
)

// These tests run the DSM against a home store that fails: a Faulty
// injector over Mem with a deterministic seed. The transient test must
// ride out injected failures through the home store engine's retries;
// the permanent test must surface gmi.ErrIO to the faulting site and
// leave no goroutines behind.

// faultyHome builds a manager whose home copy lives behind a Faulty
// injector with the given configuration.
func faultyHome(fc store.FaultConfig) (*Manager, *store.Faulty) {
	f := store.NewFaulty(store.NewMem(pg), fc)
	return NewManagerOn(pg, cost.New(), f), f
}

func TestHomeStoreTransientFaults(t *testing.T) {
	leakcheck.Check(t)

	mgr, f := faultyHome(store.FaultConfig{Seed: 42, Prob: 0.3, MaxConsecutive: 2})
	want := []byte("paged against a failing home store")
	if err := mgr.Home().WriteAt(0, want); err != nil {
		t.Fatal(err)
	}

	sites := newCluster(t, mgr, 2, 4)
	a, b := sites[0], sites[1]

	// Both sites read the preloaded page through the faulty store.
	for i, s := range sites {
		got := make([]byte, len(want))
		if err := s.ctx.Read(base, got); err != nil {
			t.Fatalf("site %d read: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("site %d sees %q", i, got)
		}
	}
	// Ping-pong a page: every coherence transaction (sync, invalidate,
	// push-out, pull-in) reaches the faulty store and must ride out the
	// injected transients.
	for i := byte(1); i <= 10; i++ {
		w, r := a, b
		if i%2 == 0 {
			w, r = b, a
		}
		if err := w.ctx.Write(base+pg, []byte{i}); err != nil {
			t.Fatalf("round %d write: %v", i, err)
		}
		got := make([]byte, 1)
		if err := r.ctx.Read(base+pg, got); err != nil {
			t.Fatalf("round %d read: %v", i, err)
		}
		if got[0] != i {
			t.Fatalf("round %d: reader sees %d", i, got[0])
		}
	}

	if err := mgr.Invariant(); err != nil {
		t.Fatal(err)
	}
	// Exact frame accounting at rest on every site.
	for i, s := range sites {
		if err := s.mm.CheckInvariants(); err != nil {
			t.Fatalf("site %d invariants: %v", i, err)
		}
	}
	for _, s := range sites {
		if err := s.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// The injected transients were absorbed below the GMI, each by one
	// retry of the home store's engine, page reads and writeback alike.
	// The retry count is the only trace they leave.
	retried := mgr.Home().Engine().StatsSnapshot().Retries
	if n := f.Injected(); n == 0 || retried != n {
		t.Fatalf("%d faults injected, %d retried", n, retried)
	}
}

func TestHomeStorePermanentFault(t *testing.T) {
	leakcheck.Check(t)

	// Every operation fails and the consecutive cap never relents: with a
	// shrunken retry budget the fault is effectively permanent.
	mgr, _ := faultyHome(store.FaultConfig{Seed: 7, Prob: 1, MaxConsecutive: 1 << 30})
	mgr.Home().Engine().SetRetry(store.Policy{
		Attempts: 2,
		Base:     time.Microsecond,
		Max:      time.Microsecond,
		Sleep:    func(time.Duration) {},
	})

	sites := newCluster(t, mgr, 1, 2)
	s := sites[0]
	got := make([]byte, 8)
	err := s.ctx.Read(base, got)
	if err == nil {
		t.Fatal("read through a dead home store succeeded")
	}
	if !errors.Is(err, gmi.ErrIO) {
		t.Fatalf("fault surfaced as %v, want gmi.ErrIO", err)
	}
	// The failed pull-in must leave the site consistent: no page was
	// granted, no frame leaked.
	if err := s.mm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
	// Close flushes through the still-failing store; the error is
	// expected — what matters is that the engine and backend shut down
	// without stranding a goroutine (leakcheck above).
	_ = mgr.Close()
}
