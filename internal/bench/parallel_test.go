package bench

import (
	"strings"
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

// TestFramePoolAblation smoke-runs the demand-zero pool-off/pool-on
// ablation at small scale: both variants must complete every fault, the
// pool-on run must actually hit the pre-zeroed pool, and the table must
// render a row per worker count.
func TestFramePoolAblation(t *testing.T) {
	pts := FramePoolAblation([]int{1, 2}, 16)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pt := range pts {
		want := pt.Workers * 16
		if pt.Off.Faults != want || pt.On.Faults != want {
			t.Fatalf("workers=%d: faults off=%d on=%d, want %d",
				pt.Workers, pt.Off.Faults, pt.On.Faults, want)
		}
		if pt.Off.Stats.ZeroFills != uint64(want) || pt.On.Stats.ZeroFills != uint64(want) {
			t.Fatalf("workers=%d: not a pure demand-zero run: off=%d on=%d zerofills",
				pt.Workers, pt.Off.Stats.ZeroFills, pt.On.Stats.ZeroFills)
		}
		if pt.On.Stats.ZeroPoolHits == 0 {
			t.Fatalf("workers=%d: pool-on run never hit the pre-zeroed pool", pt.Workers)
		}
		if pt.Off.Stats.ZeroPoolHits != 0 {
			t.Fatalf("workers=%d: pool-off run hit a pool that should not exist", pt.Workers)
		}
	}
	out := FormatFramePool(pts)
	for _, want := range []string{"workers", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
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

// TestParallelSyncPagerBaseline: the -sync-pager baseline hides each
// segment's SubmitPull, so every fill is a blocking PullIn and none is
// submitted; without it the same run submits its fills.
func TestParallelSyncPagerBaseline(t *testing.T) {
	for _, sync := range []bool{true, false} {
		r := ParallelFaultThroughputOpts(ParallelOptions{
			Workers:        2,
			PagesPerWorker: 8,
			SyncPager:      sync,
		})
		if r.Faults != 16 || r.Stats.PullIns != 16 {
			t.Fatalf("sync=%v: run incomplete: %+v", sync, r.Stats)
		}
		if got := r.Stats.FillSubmits; (got == 0) != sync {
			t.Fatalf("sync=%v: FillSubmits = %d", sync, got)
		}
	}
}
