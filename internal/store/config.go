package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Config selects a backend flavour by name — the shared "-store
// mem|file|flate" plumbing of the tools (chorusbench, vmtrace, the script
// language). The zero value means plain in-memory.
type Config struct {
	// Kind is "mem" (default), "file" (persistent page files under Dir)
	// or "flate" (compressing).
	Kind string
	// Dir is where "file" backends keep their page files (required for
	// that kind).
	Dir string
	// FaultProb, when positive, wraps every backend in a Faulty injector
	// with this per-operation transient-failure probability.
	FaultProb float64
	// Seed makes the injection deterministic; each named backend derives
	// its own stream from Seed and its name.
	Seed int64
}

// Validate reports whether the configuration is usable before any
// backend is built — the up-front check the tools run on their flag
// combinations, so a bad combination is a usage error at startup instead
// of a mid-run failure.
func (c Config) Validate() error {
	switch c.Kind {
	case "", "mem", "flate":
	case "file":
		if c.Dir == "" {
			return fmt.Errorf("store file: need dir=PATH")
		}
	default:
		return fmt.Errorf("store: unknown store kind %q (want mem, file or flate)", c.Kind)
	}
	if c.FaultProb < 0 || c.FaultProb > 1 {
		return fmt.Errorf("store: fault probability %v out of range [0, 1]", c.FaultProb)
	}
	return nil
}

// New builds one backend under the config. name keys the page file for
// "file" backends and the injection stream for faulty ones.
func (c Config) New(name string, pageSize int) (Backend, error) {
	var b Backend
	switch c.Kind {
	case "", "mem":
		b = NewMem(pageSize)
	case "flate":
		b = NewFlate(pageSize)
	case "file":
		if c.Dir == "" {
			return nil, fmt.Errorf("store file: need dir=PATH")
		}
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			return nil, err
		}
		f, err := NewFile(filepath.Join(c.Dir, name), pageSize)
		if err != nil {
			return nil, err
		}
		b = f
	default:
		return nil, fmt.Errorf("store: unknown store kind %q (want mem, file or flate)", c.Kind)
	}
	if c.FaultProb > 0 {
		b = NewFaulty(b, FaultConfig{Seed: c.faultSeed(name), Prob: c.FaultProb})
	}
	return b, nil
}

// faultSeed derives the deterministic per-name injection seed.
func (c Config) faultSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return c.Seed ^ int64(h.Sum64())
}

// Factory curries New into the shape seg.NewSwapAllocatorOn wants.
func (c Config) Factory(pageSize int) func(name string) (Backend, error) {
	return func(name string) (Backend, error) { return c.New(name, pageSize) }
}
