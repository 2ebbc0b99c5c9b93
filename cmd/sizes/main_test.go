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
		"internal/mmu/mmu.go", "internal/mmu/mmu_test.go",
		".bench_build/gopath/x.go") // hidden directories are not source
	counts, err := tally(root)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][2]int{
		"PVM: machine-independent": {6, 3},
		"MMU layer: shared":        {3, 0},
		"MMU tests":                {0, 3},
	} {
		if got := counts[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestOverBudgetRowFails fills one row to its budget, which passes, and
// then a line past it: the row, and only it, is reported.
func TestOverBudgetRowFails(t *testing.T) {
	var gmi component
	for _, c := range layout[0].rows {
		if c.name == "GMI (generic interface)" {
			gmi = c
		}
	}
	root := writeTree(t, gmi.budget, "internal/gmi/gmi.go", "internal/gmi/gmi_test.go")
	counts, err := tally(root)
	if err != nil {
		t.Fatal(err)
	}
	if over := overBudget(counts); len(over) != 0 {
		t.Fatalf("a row at its budget was reported: %v", over)
	}
	root = writeTree(t, gmi.budget+1, "internal/gmi/gmi.go")
	if counts, err = tally(root); err != nil {
		t.Fatal(err)
	}
	over := overBudget(counts)
	if len(over) != 1 || !strings.HasPrefix(over[0], gmi.name+":") {
		t.Fatalf("overBudget = %v, want only the %s row", over, gmi.name)
	}
}

// TestRepositoryFullyAssigned runs the yardstick over this repository:
// every .go file in it must belong to exactly one row.
func TestRepositoryFullyAssigned(t *testing.T) {
	if _, err := tally(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
}
