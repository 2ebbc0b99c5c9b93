package bench

import "testing"

// smallPressure keeps the unit tests fast: the full DefaultPressureConfig
// grid is CI/benchmark territory.
var smallPressure = PressureConfig{Frames: 64, Accesses: 2000, Seed: 1}

// TestPressureDeterministic pins the benchmark's reproducibility claim:
// same seed, same cell, same faults — the whole point of synchronous
// reclaim over the daemon.
func TestPressureDeterministic(t *testing.T) {
	a := pressureRun(2, smallPressure)
	b := pressureRun(2, smallPressure)
	if a.Faults != b.Faults || a.Evictions != b.Evictions || a.P99 != b.P99 {
		t.Fatalf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

// TestPressureExactCounts pins the miss, eviction and feedback counts at
// 1x and 2x overcommit. The run is deterministic, so any change to how
// the PVM drives the replacement order (insert, touch, harvest, victim
// selection, requeue) shows up here as a count, not a trend.
func TestPressureExactCounts(t *testing.T) {
	for _, want := range []struct {
		overcommit                                   float64
		faults, evictions, secondChances, promotions uint64
	}{
		{1, 505, 476, 572, 517},
		{2, 1520, 1493, 727, 1515},
	} {
		got := pressureRun(want.overcommit, smallPressure)
		if got.Faults != want.faults || got.Evictions != want.evictions ||
			got.SecondChances != want.secondChances || got.Promotions != want.promotions {
			t.Errorf("%vx: faults/evictions/second chances/promotions = %d/%d/%d/%d, want %d/%d/%d/%d",
				want.overcommit, got.Faults, got.Evictions, got.SecondChances, got.Promotions,
				want.faults, want.evictions, want.secondChances, want.promotions)
		}
	}
}

// TestPressureControlRow checks the 0.5x control row: the region fits in
// memory, so nothing is evicted and every hard fault is a compulsory
// miss, whatever the replacement order.
func TestPressureControlRow(t *testing.T) {
	pts := PressureAblation([]float64{0.5}, smallPressure)
	if len(pts) != 1 {
		t.Fatalf("got %d rows, want 1", len(pts))
	}
	if pt := pts[0]; pt.Evictions != 0 || pt.Faults != 13 {
		t.Errorf("0.5x: faults/evictions = %d/%d, want 13/0 (compulsory misses only)",
			pt.Faults, pt.Evictions)
	}
}

// TestPressureOvercommit checks that the 2x cell actually runs under
// pressure — evictions happen and harvests ran — and that both feedback
// loops are live: harvested-referenced pages are spared in the main
// queue and reused ones are promoted out of the admission queue. This is
// the precondition for the EXPERIMENTS.md comparison to mean anything.
func TestPressureOvercommit(t *testing.T) {
	pts := PressureAblation([]float64{2}, smallPressure)
	pt := pts[0]
	if pt.Evictions == 0 {
		t.Error("no evictions at 2x overcommit")
	}
	if pt.Harvests == 0 {
		t.Error("no harvest ticks ran")
	}
	if pt.SecondChances == 0 {
		t.Error("referenced bits never granted a second chance")
	}
	if pt.Promotions == 0 {
		t.Error("no promotions out of the admission queue")
	}
}
