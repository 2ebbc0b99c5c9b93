package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

const testOps = 300

// forkExecFixed runs the fork-exec workload for a fixed op count and
// returns the PVM counters and the simulated clock at the end.
func forkExecFixed(t *testing.T, seed int64, pr *probes) (core.Stats, cost.Snapshot) {
	t.Helper()
	f, err := newForkExec(seed, pr)
	if err != nil {
		t.Fatal(err)
	}
	var rr roundResult
	f.run(testOps, &rr, nil)
	st, clk := f.pvm.Stats(), f.clock.Snapshot()
	f.close()
	if rr.failed != 0 || rr.attempts != testOps {
		t.Fatalf("fork-exec: %d of %d ops failed", rr.failed, rr.attempts)
	}
	return st, clk
}

// The traced run's decorators and tracer must not change what the
// program does: same seed, same op count, identical counters.
func TestForkExecTracedMatchesUntraced(t *testing.T) {
	st0, clk0 := forkExecFixed(t, 42, nil)
	st1, clk1 := forkExecFixed(t, 42, newProbes())
	if st0 != st1 {
		t.Errorf("core.Stats differ:\nuntraced %+v\ntraced   %+v", st0, st1)
	}
	for e := cost.Event(0); e < cost.NumEvents; e++ {
		if clk0.Counts[e] != clk1.Counts[e] {
			t.Errorf("cost event %v: untraced %d, traced %d", e, clk0.Counts[e], clk1.Counts[e])
		}
	}
	if st0.HistoryPushes == 0 || st0.CowBreaks == 0 {
		t.Errorf("fork-exec did not exercise history objects and COW: %+v", st0)
	}
}

// sim_ms_per_op is a pure function of the seed and the op count.
func TestForkExecSimRepeats(t *testing.T) {
	_, a := forkExecFixed(t, 7, nil)
	_, b := forkExecFixed(t, 7, nil)
	if a.Nanos != b.Nanos || a.Nanos == 0 {
		t.Fatalf("simulated time %d then %d", a.Nanos, b.Nanos)
	}
}

// fault-in must page in through the async pager, traced or not: a
// decorator that hid gmi.Pager would move every fill to PullIn.
func TestFaultInTakesAsyncPath(t *testing.T) {
	for _, pr := range []*probes{nil, newProbes()} {
		rr := faultInRound(3, pr)
		if rr.failed != 0 {
			t.Fatalf("traced=%v: %d of %d ops failed", pr != nil, rr.failed, rr.attempts)
		}
		st := rr.layers.core
		if st.FillSubmits == 0 || st.FillSubmits != st.PullIns {
			t.Errorf("traced=%v: FillSubmits=%d PullIns=%d, want every pull-in submitted", pr != nil, st.FillSubmits, st.PullIns)
		}
		if pr != nil && rr.layers.probes.timed[tSegPull][0] == 0 {
			t.Errorf("traced run timed no pull-ins")
		}
	}
}

// The decorators keep each optional interface exactly when the wrapped
// value has it.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	clock := cost.New()
	sg := seg.NewSegment("s", 8192, clock)
	if _, ok := wrapSegment(sg, newProbes()).(gmi.Pager); !ok {
		t.Error("decorated seg.Segment lost gmi.Pager")
	}
	plain := struct{ gmi.Segment }{sg}
	if _, ok := wrapSegment(plain, newProbes()).(gmi.Pager); ok {
		t.Error("decorated non-pager gained gmi.Pager")
	}
	f, err := store.NewFile(t.TempDir()+"/p", 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := timedBackend{f, newProbes()}
	if err := b.WriteAt(0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if got := b.PageOffsets(); !reflect.DeepEqual(got, []int64{0}) {
		t.Errorf("PageOffsets = %v, want [0]", got)
	}
	if err := b.DiscardPage(0); err != nil || f.Pages() != 0 {
		t.Errorf("DiscardPage: err=%v pages=%d", err, f.Pages())
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics
// the program prints, with the same units, and only workloads it runs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	var e2e, layers []named
	for _, m := range (endToEnd{}).list() {
		e2e = append(e2e, named{m.name, m.unit})
	}
	for _, m := range perLayerNames {
		layers = append(layers, named{m.name, m.unit})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end:\nBENCHMARK.json %v\nprogram        %v", b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer:\nBENCHMARK.json %v\nprogram        %v", b.PerLayer, layers)
	}
}
