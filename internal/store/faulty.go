package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig parameterizes a Faulty wrapper. The zero value of every
// field has a sensible meaning: Prob 0 injects nothing, Seed 0 is a
// valid seed, MaxConsecutive 0 means the default cap.
type FaultConfig struct {
	// Seed makes the injection sequence deterministic: two wrappers with
	// the same seed and the same operation sequence inject identically.
	Seed int64
	// Prob is the per-operation probability of a transient failure.
	Prob float64
	// MaxConsecutive (default 3) caps back-to-back injected failures of
	// one operation (the same kind at the same offset), guaranteeing
	// forward progress under any retry policy that tries more times than
	// the cap, however many callers share the wrapper.
	MaxConsecutive int
	// Latency, when nonzero, is slept with probability LatencyProb per
	// operation: the device's occasional slow path.
	Latency     time.Duration
	LatencyProb float64
}

// Faulty wraps a Backend, deterministically injecting transient errors
// (matching ErrTransient) and latency spikes into ReadAt/WriteAt/Sync.
// It exists to exercise the retry paths: the engine's writeback workers
// and the seg upcalls must survive what it throws.
type Faulty struct {
	Backend
	cfg FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	consec map[faultOp]int // back-to-back failures injected per operation

	injected atomic.Uint64
	spikes   atomic.Uint64
}

var _ Backend = (*Faulty)(nil)

// faultOp identifies one operation for the consecutive-failure cap: a
// caller retrying it repeats the same kind at the same offset.
type faultOp struct {
	kind string
	off  int64
}

// NewFaulty wraps b with seeded, deterministic fault injection.
func NewFaulty(b Backend, cfg FaultConfig) *Faulty {
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = 3
	}
	return &Faulty{
		Backend: b,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		consec:  make(map[faultOp]int),
	}
}

// trip decides, under the seeded stream, whether this operation fails or
// stalls. The consecutive-failure cap guarantees any retry policy with
// Attempts > MaxConsecutive eventually gets through. It is counted per
// operation: with one count for the whole wrapper, another caller's
// success would reset it between a retrying caller's attempts, and that
// caller could fail past the cap.
func (f *Faulty) trip(op string, off int64) error {
	k := faultOp{op, off}
	f.mu.Lock()
	fail := f.cfg.Prob > 0 && f.rng.Float64() < f.cfg.Prob && f.consec[k] < f.cfg.MaxConsecutive
	spike := f.cfg.Latency > 0 && f.cfg.LatencyProb > 0 && f.rng.Float64() < f.cfg.LatencyProb
	if fail {
		f.consec[k]++
	} else {
		delete(f.consec, k)
	}
	f.mu.Unlock()
	if spike {
		f.spikes.Add(1)
		time.Sleep(f.cfg.Latency)
	}
	if fail {
		n := f.injected.Add(1)
		return fmt.Errorf("store: injected %s fault #%d at %#x: %w", op, n, off, ErrTransient)
	}
	return nil
}

// ReadAt implements Backend.
func (f *Faulty) ReadAt(off int64, buf []byte) error {
	if err := f.trip("read", off); err != nil {
		return err
	}
	return f.Backend.ReadAt(off, buf)
}

// WriteAt implements Backend.
func (f *Faulty) WriteAt(off int64, data []byte) error {
	if err := f.trip("write", off); err != nil {
		return err
	}
	return f.Backend.WriteAt(off, data)
}

// Sync implements Backend.
func (f *Faulty) Sync() error {
	if err := f.trip("sync", 0); err != nil {
		return err
	}
	return f.Backend.Sync()
}

// Injected returns how many transient failures have been injected.
func (f *Faulty) Injected() uint64 { return f.injected.Load() }

// Spikes returns how many latency spikes have been injected.
func (f *Faulty) Spikes() uint64 { return f.spikes.Load() }
