package store

import (
	"errors"
	"testing"
	"time"
)

// faultTrace runs a fixed op sequence against a fresh Faulty wrapper and
// records which ops failed.
func faultTrace(seed int64, ops int) []bool {
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: seed, Prob: 0.3})
	out := make([]bool, ops)
	buf := make([]byte, psTest)
	for i := range out {
		var err error
		if i%2 == 0 {
			err = f.WriteAt(int64(i)*psTest, buf)
		} else {
			err = f.ReadAt(int64(i)*psTest, buf)
		}
		out[i] = err != nil
	}
	return out
}

func TestFaultyIsDeterministicPerSeed(t *testing.T) {
	a := faultTrace(1234, 200)
	b := faultTrace(1234, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
	}
	c := faultTrace(5678, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical 200-op fault traces")
	}
}

func TestFaultyErrorsAreTransient(t *testing.T) {
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 1, Prob: 1})
	err := f.WriteAt(0, make([]byte, psTest))
	if err == nil {
		t.Fatal("Prob=1 first op did not fail")
	}
	if !IsTransient(err) {
		t.Fatalf("injected error %v does not match ErrTransient", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("injected error %v: errors.Is(ErrTransient) = false", err)
	}
}

func TestFaultyConsecutiveCapGuaranteesProgress(t *testing.T) {
	// Prob=1 would fail forever; the cap forces every 4th op through.
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 1, Prob: 1, MaxConsecutive: 3})
	buf := make([]byte, psTest)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			if err := f.WriteAt(0, buf); err == nil {
				t.Fatalf("round %d op %d: expected injected failure", round, i)
			}
		}
		if err := f.WriteAt(0, buf); err != nil {
			t.Fatalf("round %d: 4th op should pass the consecutive cap, got %v", round, err)
		}
	}
	if f.Injected() != 15 {
		t.Fatalf("Injected() = %d, want 15", f.Injected())
	}
}

// TestFaultyCapIsPerOperation interleaves the retries of two callers.
// Each one's attempts must get through by the cap, however the other's
// attempts fall in between: a success of one caller must not reset the
// other's count.
func TestFaultyCapIsPerOperation(t *testing.T) {
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 1, Prob: 1, MaxConsecutive: 3})
	buf := make([]byte, psTest)
	var done [2]bool
	for attempt := 1; attempt <= 4; attempt++ {
		for c := range done {
			if !done[c] {
				done[c] = f.WriteAt(int64(c)*psTest, buf) == nil
			}
		}
	}
	if !done[0] || !done[1] {
		t.Fatalf("callers got through: %v; want both by their 4th attempt (cap 3)", done)
	}
}

func TestFaultyRecoversUnderDefaultPolicy(t *testing.T) {
	// The invariant the whole subsystem leans on: the default retry policy
	// tries more times (6) than the default consecutive cap (3), so a
	// worst-case injection stream still makes progress.
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 99, Prob: 1})
	p := DefaultPolicy()
	p.Sleep = func(d time.Duration) {} // no need to really back off in tests
	retries := 0
	p.OnRetry = func(int, time.Duration, error) { retries++ }
	for i := 0; i < 10; i++ {
		if err := p.Do(func() error { return f.WriteAt(int64(i)*psTest, make([]byte, psTest)) }); err != nil {
			t.Fatalf("op %d failed through the default policy: %v", i, err)
		}
	}
	if retries == 0 {
		t.Fatal("no retries recorded under Prob=1 injection")
	}
}
