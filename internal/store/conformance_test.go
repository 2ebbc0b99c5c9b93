package store_test

import (
	"path/filepath"
	"testing"

	"chorusvm/internal/store"
	"chorusvm/internal/store/storetest"
)

// TestConformance runs the shared battery (storetest.Run) over every
// built-in backend flavour.
func TestConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   storetest.Maker
	}{
		{"mem", func(t *testing.T, ps int) store.Backend { return store.NewMem(ps) }},
		{"file", func(t *testing.T, ps int) store.Backend {
			f, err := store.NewFile(filepath.Join(t.TempDir(), "seg"), ps)
			if err != nil {
				t.Fatalf("NewFile: %v", err)
			}
			return f
		}},
		{"flate", func(t *testing.T, ps int) store.Backend { return store.NewFlate(ps) }},
		// Faulty with Prob 0 must be a transparent wrapper.
		{"faulty(mem)", func(t *testing.T, ps int) store.Backend {
			return store.NewFaulty(store.NewMem(ps), store.FaultConfig{Seed: 7})
		}},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) { storetest.Run(t, bc.mk) })
	}
}

// TestConformanceFileReopen proves the file backend's persistence
// through the shared reopen battery.
func TestConformanceFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	storetest.RunReopen(t, func(t *testing.T) store.Backend {
		f, err := store.NewFile(path, storetest.PageSize)
		if err != nil {
			t.Fatalf("NewFile: %v", err)
		}
		return f
	})
}
