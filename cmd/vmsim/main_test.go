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

// TestFigure3Golden compares the rendered history trees — Figure 3 (a-d),
// and with -collapse the fork-exit chain — byte for byte with
// testdata/<name>.golden. Regenerate with `go test ./cmd/vmsim -update`
// and review the diff.
func TestFigure3Golden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig3", nil},
		{"collapse", []string{"-collapse"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("vmsim %s exited %d:\n%s", strings.Join(tc.args, " "), code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
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
		})
	}
}
