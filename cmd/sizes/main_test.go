package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree creates the named files (relative, slash-separated) under a
// fresh temporary root, each holding lines lines.
func writeTree(t *testing.T, lines int, files ...string) string {
	t.Helper()
	root := t.TempDir()
	body := strings.Repeat("//\n", lines)
	for _, f := range files {
		path := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestTallyRejectsUnassignedFile(t *testing.T) {
	root := writeTree(t, 3, "internal/core/fault.go", "internal/newpkg/thing.go")
	_, err := tally(root)
	if err == nil {
		t.Fatal("a file assigned to no row was accepted")
	}
	if want := filepath.Join("internal", "newpkg", "thing.go"); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}

func TestTallyCountsEachFileOnce(t *testing.T) {
	root := writeTree(t, 3,
		"internal/core/fault.go", "internal/core/fault_test.go", "internal/phys/phys.go",
		"internal/mmu/mmu.go", "internal/mmu/tlb.go", "internal/mmu/mmu_test.go",
		".bench_build/gopath/x.go") // hidden directories are not source
	counts, err := tally(root)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][2]int{
		"PVM: machine-independent":  {6, 3},
		"MMU layer: shared":         {3, 0},
		"MMU: TLB model; MMU tests": {3, 3},
	} {
		if got := counts[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestRepositoryFullyAssigned runs the yardstick over this repository:
// every .go file in it must belong to exactly one row.
func TestRepositoryFullyAssigned(t *testing.T) {
	if _, err := tally(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
}
