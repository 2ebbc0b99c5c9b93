package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestPaperTablesGolden compares the paper's simulated evaluation — Tables
// 6 and 7 for the Chorus PVM and the Mach baseline, and the section 5.3.2
// derived overheads — byte for byte with testdata/tables.golden. Every
// number is simulated time on the calibrated cost model, so any change is
// a change to a paper number. Regenerate with
// `go test ./cmd/chorusbench -update` and review the diff.
func TestPaperTablesGolden(t *testing.T) {
	checkGolden(t, "tables.golden", "-iters", "8")
}

// TestAblationsGolden pins the simulated columns of the ablation
// benchmarks (crossover, exec cache, collapse, IPC, clustering, DSM,
// large make, copy policy, MMU portability) byte for byte with
// testdata/ablations.golden. The section prints no wall-clock time, so
// the output is a function of the cost model alone.
func TestAblationsGolden(t *testing.T) {
	checkGolden(t, "ablations.golden", "-ablations", "-table", "-1", "-derive=false", "-iters", "8")
}

// checkGolden runs chorusbench with args and compares its stdout with
// testdata/name, rewriting the file first under -update.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("chorusbench %s exited %d:\n%s", strings.Join(args, " "), code, stderr.String())
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, stdout.String(), want)
	}
}
