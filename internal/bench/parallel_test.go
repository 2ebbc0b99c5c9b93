package bench

import (
	"testing"

	"chorusvm/internal/store"
)

// TestParallelOptsBackends runs the configurable benchmark once per
// backend kind with preload, checking that the measured interval shows
// real store activity and that the result is self-consistent.
func TestParallelOptsBackends(t *testing.T) {
	for _, kind := range []string{"mem", "file", "flate"} {
		t.Run(kind, func(t *testing.T) {
			cfg := store.Config{Kind: kind}
			if kind == "file" {
				cfg.Dir = t.TempDir()
			}
			r := ParallelFaultThroughputOpts(ParallelOptions{
				Workers:        2,
				PagesPerWorker: 8,
				Store:          cfg,
				Preload:        true,
			})
			if r.Faults != 16 {
				t.Fatalf("Faults = %d, want 16", r.Faults)
			}
			if r.Stats.PullIns != 16 {
				t.Fatalf("PullIns = %d, want 16 (preloaded pages must pull, not zero-fill)", r.Stats.PullIns)
			}
			if r.Store.Reads == 0 {
				t.Fatal("no store read activity in the measured interval")
			}
		})
	}
}

// TestParallelDemandZero smoke-runs the allocation-bound workload at
// small scale: every fault must be a demand-zero fill, with no pull-in.
func TestParallelDemandZero(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := ParallelFaultThroughputOpts(ParallelOptions{Workers: workers, PagesPerWorker: 16, DemandZero: true})
		want := workers * 16
		if r.Faults != want || r.Stats.ZeroFills != uint64(want) || r.Stats.PullIns != 0 {
			t.Fatalf("workers=%d: faults=%d zerofills=%d pullins=%d, want %d demand-zero faults",
				workers, r.Faults, r.Stats.ZeroFills, r.Stats.PullIns, want)
		}
	}
}

// TestParallelOptsFaultInjection checks the fault-injected run: it must
// complete correctly and record retries below the GMI.
func TestParallelOptsFaultInjection(t *testing.T) {
	r := ParallelFaultThroughputOpts(ParallelOptions{
		Workers:        2,
		PagesPerWorker: 16,
		Store:          store.Config{Kind: "mem", FaultProb: 0.5, Seed: 9},
		Preload:        true,
	})
	if r.Faults != 32 || r.Stats.PullIns != 32 {
		t.Fatalf("run incomplete: %+v", r.Stats)
	}
	if r.Store.Retries == 0 {
		t.Fatal("fault injection produced no retries")
	}
}
