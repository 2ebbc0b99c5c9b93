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

// TestExampleScriptsGolden runs each examples/scripts program through
// vmtrace with the flags its header names and compares the output byte
// for byte with testdata/<name>.golden. Regenerate with
// `go test ./cmd/vmtrace -update`. The output does not depend on the
// host's CPU count (CI runs it at -cpu 1,2,4).
func TestExampleScriptsGolden(t *testing.T) {
	for _, tc := range []struct {
		script string
		flags  []string
	}{
		{"fig3.vt", nil},
		{"swap.vt", []string{"-frames", "16"}},
	} {
		t.Run(tc.script, func(t *testing.T) {
			args := append(append([]string{}, tc.flags...), filepath.Join("..", "..", "examples", "scripts", tc.script))
			var stdout, stderr bytes.Buffer
			if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
				t.Fatalf("vmtrace %s exited %d:\n%s", strings.Join(args, " "), code, stderr.String())
			}
			golden := filepath.Join("testdata", strings.TrimSuffix(tc.script, ".vt")+".golden")
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
