package bench

import "testing"

// smallPressure keeps the unit tests fast: the full DefaultPressureConfig
// grid is CI/benchmark territory.
var smallPressure = PressureConfig{Frames: 64, Accesses: 2000, Seed: 1}

// TestPressureDeterministic pins the ablation's reproducibility claim:
// same seed, same cell, same faults — the whole point of synchronous
// reclaim over the daemon.
func TestPressureDeterministic(t *testing.T) {
	a := pressureRun("2q", 2, smallPressure)
	b := pressureRun("2q", 2, smallPressure)
	if a.Faults != b.Faults || a.Evictions != b.Evictions || a.P99 != b.P99 {
		t.Fatalf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

// TestPressureExactCounts pins every policy's miss, eviction and
// feedback counts at 1x and 2x overcommit. The run is deterministic, so
// any change to how the PVM drives the policy (insert, touch, harvest,
// victim selection, requeue) shows up here as a count, not a trend.
func TestPressureExactCounts(t *testing.T) {
	for _, want := range []struct {
		policy                                       string
		overcommit                                   float64
		faults, evictions, secondChances, promotions uint64
	}{
		{"lru", 1, 746, 719, 0, 0},
		{"clock", 1, 552, 521, 963, 0},
		{"2q", 1, 505, 476, 572, 517},
		{"lru", 2, 1515, 1493, 0, 0},
		{"clock", 2, 1523, 1502, 1797, 0},
		{"2q", 2, 1520, 1493, 727, 1515},
	} {
		got := pressureRun(want.policy, want.overcommit, smallPressure)
		if got.Faults != want.faults || got.Evictions != want.evictions ||
			got.SecondChances != want.secondChances || got.Promotions != want.promotions {
			t.Errorf("%s at %vx: faults/evictions/second chances/promotions = %d/%d/%d/%d, want %d/%d/%d/%d",
				want.policy, want.overcommit, got.Faults, got.Evictions, got.SecondChances, got.Promotions,
				want.faults, want.evictions, want.secondChances, want.promotions)
		}
	}
}

// TestPressureControlRow checks the 0.5x control row: the region fits in
// memory, so no policy evicts and all see the same compulsory misses.
func TestPressureControlRow(t *testing.T) {
	pts := PressureAblation([]string{"lru", "clock", "2q"}, []float64{0.5}, smallPressure)
	for _, pt := range pts[1:] {
		if pt.Faults != pts[0].Faults {
			t.Errorf("%s saw %d faults at 0.5x, lru saw %d — policies must agree when nothing evicts",
				pt.Policy, pt.Faults, pts[0].Faults)
		}
	}
	for _, pt := range pts {
		if pt.Evictions != 0 {
			t.Errorf("%s evicted %d pages with the region at half of memory", pt.Policy, pt.Evictions)
		}
	}
}

// TestPressureOvercommit checks that the 2x cell actually runs under
// pressure (evictions happen, harvests ran) for every policy — the
// precondition for the EXPERIMENTS.md comparison to mean anything.
func TestPressureOvercommit(t *testing.T) {
	pts := PressureAblation([]string{"lru", "clock", "2q"}, []float64{2}, smallPressure)
	for _, pt := range pts {
		if pt.Evictions == 0 {
			t.Errorf("%s: no evictions at 2x overcommit", pt.Policy)
		}
		if pt.Harvests == 0 {
			t.Errorf("%s: no harvest ticks ran", pt.Policy)
		}
	}
	// The feedback loops must be live where they exist at all: clock and
	// 2q spare harvested-referenced pages, 2q promotes reused ones.
	for _, pt := range pts {
		switch pt.Policy {
		case "clock", "2q":
			if pt.SecondChances == 0 {
				t.Errorf("%s: referenced bits never granted a second chance", pt.Policy)
			}
		}
		if pt.Policy == "2q" && pt.Promotions == 0 {
			t.Error("2q: no promotions out of the admission queue")
		}
	}
}
