package script

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chorusvm/internal/core"
	"chorusvm/internal/obs"
)

func run(t *testing.T, src string) (*Interp, string) {
	t.Helper()
	var out strings.Builder
	in, err := New(&out, core.Options{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
	}
	if err := in.PVM().CheckInvariants(); err != nil {
		t.Fatalf("invariants after script: %v", err)
	}
	return in, out.String()
}

func TestScriptForkScenario(t *testing.T) {
	_, out := run(t, `
# figure-3.a style scenario
cache src
region rsrc src 0x10000 4
write rsrc 0x0 0x11 0x8000
cache child
copy src 0 child 0 4
region rchild child 0x40000 4
write rsrc 0x0 0x99 0x10
expect rchild 0x0 0x11 0x10
expect rsrc 0x0 0x99 0x10
expect rchild 0x2000 0x11 0x10
tree
stats
`)
	if !strings.Contains(out, "history: child") {
		t.Fatalf("tree output missing history edge:\n%s", out)
	}
	if !strings.Contains(out, "historypushes=1") {
		t.Fatalf("stats missing the expected push:\n%s", out)
	}
}

func TestScriptSegmentPreload(t *testing.T) {
	_, out := run(t, `
cache file pages=2 preload=0x3c
region r file 0x10000 2
expect r 0x0 0x3c 0x100
read r 0x0 0x10
sync file
invalidate file
expect r 0x0 0x3c 0x20
`)
	if !strings.Contains(out, "read r+0x0") {
		t.Fatalf("missing read output:\n%s", out)
	}
}

func TestScriptMoveAndPageout(t *testing.T) {
	in, out := run(t, `
cache a
region ra a 0x10000 4
write ra 0x0 0x21 0x8000
cache b
move a 0 b 0 4
region rb b 0x40000 4
expect rb 0x0 0x21 0x10
pageout 4
expect rb 0x0 0x21 0x10
destroy ra
destroy a
expect rb 0x2000 0x21 0x10
`)
	if !strings.Contains(out, "pageout reclaimed") {
		t.Fatalf("missing pageout output:\n%s", out)
	}
	if st := in.PVM().Stats(); st.Evictions == 0 {
		t.Fatal("pageout did not evict")
	}
}

func TestScriptLocking(t *testing.T) {
	run(t, `
cache a
region ra a 0x10000 2
write ra 0x0 0x31 0x4000
lock ra
pageout 16
expect ra 0x0 0x31 0x4000
unlock ra
`)
}

func TestScriptErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"bogus", "unknown command"},
		{"region r nope 0x1000 2", "no cache"},
		{"cache a\ncache a", "already exists"},
		{"write r 0 0 1", "no region"},
		{"cache a\nregion r a 0x10000 2\nexpect r 0 0x55 4", "byte 0"},
		{"destroy ghost", "no region or cache"},
	}
	for _, c := range cases {
		var out strings.Builder
		in, err := New(&out, core.Options{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		err = in.Run(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("script %q: got %v, want error containing %q", c.src, err, c.want)
		}
	}
}

func TestScriptWorkingObjectTree(t *testing.T) {
	_, out := run(t, `
cache src
region rsrc src 0x10000 4
write rsrc 0x0 0x41 0x8000
cache c1
copy src 0 c1 0 4
cache c2
copy src 0 c2 0 4
tree
`)
	if !strings.Contains(out, "(w") {
		t.Fatalf("second copy did not show a working object:\n%s", out)
	}
}

func TestScriptTraceAndHist(t *testing.T) {
	// Faults before `trace on` must not be recorded; faults after must
	// show up in the `hist` table.
	in, out := run(t, `
cache a
region ra a 0x10000 4
write ra 0x0 0x11 0x10
trace on
write ra 0x2000 0x22 0x10
trace off
hist
`)
	if !strings.Contains(out, "latency histograms") {
		t.Fatalf("hist printed nothing:\n%s", out)
	}
	snap := in.PVM().Tracer().Snapshot()
	if snap.Events == 0 {
		t.Fatal("trace on recorded no events")
	}
	st := in.PVM().Stats()
	if got := snap.Ops[obs.OpFault].Count; got >= st.Faults {
		t.Fatalf("tracer saw %d faults but only the traced window's should be recorded (total %d)", got, st.Faults)
	}
	if in.PVM().Tracer().Enabled() {
		t.Fatal("trace off left the tracer enabled")
	}
}

func TestScriptTraceErrors(t *testing.T) {
	for _, src := range []string{"trace", "trace maybe", "trace on off"} {
		var out strings.Builder
		in, err := New(&out, core.Options{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Run(strings.NewReader(src)); err == nil {
			t.Errorf("script %q: want usage error, got nil", src)
		}
	}
}

// TestScriptStoreStatement drives the `store` statement through every
// backend kind: preloaded content must survive eviction and read back
// identically regardless of where the pages actually live, and the file
// backend must leave real page files behind.
func TestScriptStoreStatement(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"mem", "flate", "file"} {
		t.Run(kind, func(t *testing.T) {
			stmt := "store " + kind
			if kind == "file" {
				stmt += " dir=" + dir
			}
			in, _ := run(t, stmt+`
cache src pages=4 preload=0x5a
region r src 0x10000 4
expect r 0x0 0x5a 0x1000
write r 0x0 0x66 0x1000
pageout 16
expect r 0x0 0x66 0x1000
expect r 0x2000 0x5a 0x100
`)
			if st := in.PVM().Stats(); st.PullIns == 0 {
				t.Fatal("preloaded cache never pulled from its segment")
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "src.pages")); err != nil {
		t.Fatalf("store file left no page file: %v", err)
	}
}

// TestScriptStoreFaults runs a workload over a fault-injecting store:
// transient failures must be retried below the GMI, so the script still
// succeeds and the data survives.
func TestScriptStoreFaults(t *testing.T) {
	run(t, `
store mem faults=0.5 seed=3
cache src pages=4 preload=0x44
region r src 0x10000 4
expect r 0x0 0x44 0x4000
write r 0x1000 0x77 0x1000
pageout 16
expect r 0x1000 0x77 0x1000
`)
}

// TestScriptStoreErrors covers the statement's own error cases.
func TestScriptStoreErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"store", "need KIND"},
		{"store tape", "unknown store kind"},
		{"store file", "need dir=PATH"},
		{"store mem faults=2", "probability"},
		{"store mem bogus=1", "unknown option"},
	}
	for _, c := range cases {
		var out strings.Builder
		in, err := New(&out, core.Options{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		err = in.Run(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("script %q: got %v, want error containing %q", c.src, err, c.want)
		}
	}
}

// TestScriptPolicyStatement covers the policy/harvest statements: print,
// switch, harvest feedback visible in stats, and the error cases.
func TestScriptPolicyStatement(t *testing.T) {
	_, out := run(t, `
policy
cache a
region r a 0x10000 8
write r 0x0 0x11 0x10000
policy clock
policy
harvest
pageout 4
stats
`)
	if !strings.Contains(out, "policy lru\n") {
		t.Fatalf("default policy not printed:\n%s", out)
	}
	if !strings.Contains(out, "policy clock\n") {
		t.Fatalf("switched policy not printed:\n%s", out)
	}
	if !strings.Contains(out, "harvests=1") {
		t.Fatalf("stats missing the harvest tick:\n%s", out)
	}
	// The harvested referenced bits must have granted second chances
	// before pageout could evict.
	if strings.Contains(out, "secondchances=0 ") {
		t.Fatalf("stats show no second chances after harvest + pageout:\n%s", out)
	}

	for _, c := range []struct{ src, want string }{
		{"policy fifo", "unknown replacement policy"},
		{"policy lru extra", "at most one argument"},
	} {
		var sb strings.Builder
		in, err := New(&sb, core.Options{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		err = in.Run(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("script %q: got %v, want error containing %q", c.src, err, c.want)
		}
	}
}
