package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current output")

// TestGolden compares the example's report byte for byte with
// testdata/quickstart.golden. Regenerate with `go test ./examples/quickstart -update`
// and review the diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("quickstart exited %d:\n%s", code, out.String())
	}
	golden := filepath.Join("testdata", "quickstart.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.String(), want)
	}
}
