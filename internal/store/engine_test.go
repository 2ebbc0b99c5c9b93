package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateBackend wraps a Backend so a test can hold the first WriteAt open
// (forcing dirty pages to pile up behind it) and observe when the worker
// has entered the backend.
type gateBackend struct {
	Backend
	entered chan struct{} // closed when the first WriteAt starts
	release chan struct{} // WriteAt blocks until this is closed
	once    sync.Once
}

func (g *gateBackend) WriteAt(off int64, data []byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Backend.WriteAt(off, data)
}

func TestEngineCoalescesAdjacentWriteback(t *testing.T) {
	g := &gateBackend{
		Backend: NewMem(psTest),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	e := NewEngine(g, Options{Workers: 1, MaxBatchPages: 8})

	// First write: the single worker takes a batch of {page 0} and blocks
	// inside the backend.
	if err := e.Write(0, pattern(1, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the backend")
	}

	// Eight adjacent pages accumulate behind the stalled batch.
	for i := 1; i <= 8; i++ {
		if err := e.Write(int64(i)*psTest, pattern(byte(i+1), psTest)); err != nil {
			t.Fatalf("Write page %d: %v", i, err)
		}
	}
	close(g.release)
	e.Barrier()

	st := e.StatsSnapshot()
	if st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (1-page batch + 8-page coalesced batch)", st.Batches)
	}
	if st.BatchPages != 9 {
		t.Fatalf("BatchPages = %d, want 9", st.BatchPages)
	}
	if st.Coalesced != 7 {
		t.Fatalf("Coalesced = %d, want 7", st.Coalesced)
	}
	// And the coalesced content must be correct in the backend.
	for i := 0; i <= 8; i++ {
		got := make([]byte, psTest)
		if err := g.Backend.ReadAt(int64(i)*psTest, got); err != nil {
			t.Fatalf("backend ReadAt: %v", err)
		}
		if !bytes.Equal(got, pattern(byte(i+1), psTest)) {
			t.Fatalf("page %d content mismatch after coalesced writeback", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestEngineDetectsCorruption(t *testing.T) {
	b := NewMem(psTest)
	e := NewEngine(b, Options{})
	defer e.Close()

	if err := e.Write(0, pattern(0x5A, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Corrupt the page behind the engine's back: its recorded checksum no
	// longer matches what the backend returns.
	evil := pattern(0x5A, psTest)
	evil[17] ^= 0xFF
	if err := b.WriteAt(0, evil); err != nil {
		t.Fatalf("backend WriteAt: %v", err)
	}
	err := e.Read(0, make([]byte, psTest))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of corrupted page = %v, want ErrCorrupt", err)
	}
	if st := e.StatsSnapshot(); st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// TestEngineChecksumsOnlyUncheckedBackends: each page read from the
// backend is checksummed once. A bare File or Flate verifies its own
// pages, so the engine records no checksum for them; every other
// backend, a wrapped File included, keeps the engine's.
func TestEngineChecksumsOnlyUncheckedBackends(t *testing.T) {
	newFile := func() Backend {
		f, err := NewFile(filepath.Join(t.TempDir(), "seg"), psTest)
		if err != nil {
			t.Fatalf("NewFile: %v", err)
		}
		return f
	}
	for _, tc := range []struct {
		name   string
		b      Backend
		engine bool // the engine records and checks checksums
	}{
		{"file", newFile(), false},
		{"flate", NewFlate(psTest), false},
		{"mem", NewMem(psTest), true},
		{"faulty(file)", NewFaulty(newFile(), FaultConfig{Seed: 3}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.b, Options{})
			defer e.Close()
			if err := e.Write(0, pattern(0x3C, psTest)); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := e.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			got := make([]byte, psTest)
			if err := e.Read(0, got); err != nil || !bytes.Equal(got, pattern(0x3C, psTest)) {
				t.Fatalf("Read = %v, or wrong bytes", err)
			}
			e.mu.Lock()
			n := len(e.sums)
			e.mu.Unlock()
			if want := map[bool]int{true: 1, false: 0}[tc.engine]; n != want {
				t.Fatalf("engine holds %d checksums, want %d", n, want)
			}
		})
	}
}

// TestEngineCountsBackendCorruption: a self-checking backend's own
// corruption report reaches the caller as ErrCorrupt and is counted in
// the engine's Corruptions, exactly once.
func TestEngineCountsBackendCorruption(t *testing.T) {
	z := NewFlate(psTest)
	e := NewEngine(z, Options{})
	defer e.Close()
	if err := e.Write(0, pattern(0x5A, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	z.mu.Lock()
	z.crcs[0] ^= 1 // the stored page no longer matches its checksum
	z.mu.Unlock()
	err := e.ReadPages(0, [][]byte{make([]byte, psTest)})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadPages of a damaged page = %v, want ErrCorrupt", err)
	}
	if st := e.StatsSnapshot(); st.Corruptions != 1 || st.Retries != 0 {
		t.Fatalf("Corruptions=%d Retries=%d, want 1 and 0", st.Corruptions, st.Retries)
	}
}

// brokenBackend fails every WriteAt with a permanent (non-transient)
// error; Sync and reads still work.
type brokenBackend struct{ Backend }

var errDeviceGone = errors.New("device gone")

func (b *brokenBackend) WriteAt(off int64, data []byte) error { return errDeviceGone }

func TestEngineLatchesPermanentWriteError(t *testing.T) {
	e := NewEngine(&brokenBackend{NewMem(psTest)}, Options{})
	if err := e.Write(0, pattern(1, psTest)); err != nil {
		t.Fatalf("first Write: %v (enqueue must not fail)", err)
	}
	if err := e.Flush(); !errors.Is(err, errDeviceGone) {
		t.Fatalf("Flush = %v, want the latched device error", err)
	}
	if err := e.Err(); !errors.Is(err, errDeviceGone) {
		t.Fatalf("Err = %v, want the latched device error", err)
	}
	// The error stays latched: later writes keep reporting it.
	if err := e.Write(psTest, pattern(2, psTest)); !errors.Is(err, errDeviceGone) {
		t.Fatalf("Write after latch = %v, want the latched device error", err)
	}
	st := e.StatsSnapshot()
	if st.WriteErrors == 0 {
		t.Fatalf("WriteErrors = 0, want > 0")
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (permanent errors must not be retried)", st.Retries)
	}
	// The abandoned write must not poison reads: the engine forgets the
	// enqueue-time checksum and serves the backend's old content (zeros
	// here — nothing ever landed), rather than reporting corruption.
	got := make([]byte, psTest)
	if err := e.Read(0, got); err != nil {
		t.Fatalf("Read after abandoned write: %v", err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("byte %d = %#x after abandoned write, want backend content (0)", i, v)
		}
	}
}

func TestEngineRetriesTransientWriteback(t *testing.T) {
	m := NewMem(psTest)
	f := NewFaulty(m, FaultConfig{Seed: 42, Prob: 0.5})
	e := NewEngine(f, Options{})
	for i := 0; i < 32; i++ {
		if err := e.Write(int64(i)*psTest, pattern(byte(i), psTest)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v (transient faults must be absorbed)", err)
	}
	st := e.StatsSnapshot()
	if st.Retries == 0 {
		t.Fatalf("Retries = 0, want > 0 under Prob=0.5 injection")
	}
	if st.WriteErrors != 0 {
		t.Fatalf("WriteErrors = %d, want 0", st.WriteErrors)
	}
	// Everything must have landed intact. Verify via the inner backend:
	// Engine.Read deliberately does not retry (the seg layer owns read
	// retries), so reading through the Faulty wrapper here would flake.
	for i := 0; i < 32; i++ {
		got := make([]byte, psTest)
		if err := m.ReadAt(int64(i)*psTest, got); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, pattern(byte(i), psTest)) {
			t.Fatalf("page %d mismatch after faulty writeback", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestEngineTruncateDropsState(t *testing.T) {
	b := NewMem(psTest)
	e := NewEngine(b, Options{})
	defer e.Close()
	if err := e.Write(0, pattern(9, 4*psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := e.Truncate(0); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if got := b.Pages(); got != 0 {
		t.Fatalf("backend Pages() = %d after Truncate(0), want 0", got)
	}
	// Checksums for the dropped pages must be gone: a re-read sees clean
	// zeros, not a stale-sum corruption report.
	got := make([]byte, 4*psTest)
	if err := e.Read(0, got); err != nil {
		t.Fatalf("Read after Truncate: %v", err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("byte %d = %#x after Truncate, want 0", i, v)
		}
	}
}

// TestEngineTruncateSkipsBusyWorker: Truncate discards queued writeback
// beyond the cut instead of draining it, so it returns while the only
// worker is still inside a ReadAsync completion. ReadAsync's contract
// lets a holder of a lock that completions take call Truncate; one that
// waited for the worker would deadlock there.
func TestEngineTruncateSkipsBusyWorker(t *testing.T) {
	b := NewMem(psTest)
	e := NewEngine(b, Options{Workers: 1})
	defer e.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	e.ReadAsync(0, [][]byte{make([]byte, psTest)}, func(error) {
		close(entered)
		<-release
	})
	<-entered
	if err := e.Write(0, pattern(5, 2*psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Truncate(0) }()
	var err error
	select {
	case err = <-done:
		close(release)
	case <-time.After(5 * time.Second):
		t.Error("Truncate waited for the worker running a completion")
		close(release)
		err = <-done
	}
	if err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	e.Barrier()
	if got := b.Pages(); got != 0 {
		t.Fatalf("backend Pages() = %d after Truncate(0), want 0 (dropped writeback landed)", got)
	}
}

func TestEngineConcurrentWritersReaders(t *testing.T) {
	e := NewEngine(NewMem(psTest), Options{Workers: 4})
	defer e.Close()
	const pages = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < pages; i += 4 {
				if err := e.Write(int64(i)*psTest, pattern(byte(i+1), psTest)); err != nil {
					t.Errorf("Write page %d: %v", i, err)
					return
				}
				got := make([]byte, psTest)
				if err := e.Read(int64(i)*psTest, got); err != nil {
					t.Errorf("Read page %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, pattern(byte(i+1), psTest)) {
					t.Errorf("page %d incoherent read-after-write", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < pages; i++ {
		got := make([]byte, psTest)
		if err := e.Read(int64(i)*psTest, got); err != nil {
			t.Fatalf("Read page %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(byte(i+1), psTest)) {
			t.Fatalf("page %d mismatch after flush", i)
		}
	}
}

// firstWriteGate holds only the first WriteAt open; later writes pass.
type firstWriteGate struct {
	Backend
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *firstWriteGate) WriteAt(off int64, data []byte) error {
	first := false
	g.once.Do(func() { first = true; close(g.entered) })
	if first {
		<-g.release
	}
	return g.Backend.WriteAt(off, data)
}

// TestEngineRewriteWaitsForInflightVersion rewrites a page while its
// previous version is inside a backend write. A second worker must not
// write the new version alongside: the stalled old version would land
// last and leave the backend behind the page's checksum.
func TestEngineRewriteWaitsForInflightVersion(t *testing.T) {
	g := &firstWriteGate{
		Backend: NewMem(psTest),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	if err := e.Write(0, pattern(1, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the backend")
	}
	if err := e.Write(0, pattern(2, psTest)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	// Let the second worker run out of work and park before the stalled
	// write completes, then let every worker finish and park.
	waitBusy(t, e, 1)
	close(g.release)
	waitBusy(t, e, 0)
	got := make([]byte, psTest)
	if err := e.Read(0, got); err != nil {
		t.Fatalf("Read after rewrite: %v", err)
	}
	if !bytes.Equal(got, pattern(2, psTest)) {
		t.Fatal("backend kept the older version")
	}
}

// waitBusy polls until exactly n of the engine's workers are not
// parked.
func waitBusy(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		got := e.workers - e.idle
		e.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers busy, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// slowFirstRead returns its first ReadAt's bytes only once release is
// closed: the device has read the page, the answer is still on its way.
type slowFirstRead struct {
	Backend
	entered, release chan struct{}
	once             sync.Once
	reads            atomic.Int32
}

func (g *slowFirstRead) ReadAt(off int64, buf []byte) error {
	g.reads.Add(1)
	err := g.Backend.ReadAt(off, buf)
	first := false
	g.once.Do(func() { first = true; close(g.entered) })
	if first {
		<-g.release
	}
	return err
}

// TestEngineReadRacingWrite rewrites a page while a read of it is inside
// the backend. The read's bytes predate the checksum the rewrite records,
// which is no corruption: the read must serve one of the two versions.
func TestEngineReadRacingWrite(t *testing.T) {
	g := &slowFirstRead{
		Backend: NewMem(psTest),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	e := NewEngine(g, Options{Workers: 1})
	defer e.Close()
	if err := e.Write(0, pattern(1, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	e.Barrier()
	got := make([]byte, psTest)
	read := make(chan error, 1)
	go func() { read <- e.Read(0, got) }()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("read never reached the backend")
	}
	if err := e.Write(0, pattern(2, psTest)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	close(g.release)
	if err := <-read; err != nil {
		t.Fatalf("Read racing a rewrite: %v", err)
	}
	if !bytes.Equal(got, pattern(1, psTest)) && !bytes.Equal(got, pattern(2, psTest)) {
		t.Fatal("Read returned neither version of the page")
	}
}

// TestEngineReadIgnoresOtherPagesWrites writes one page while a read of
// another is inside the backend. Only a write to the page being read
// can make its bytes disagree with its checksum, so the read must not
// go back to the backend.
func TestEngineReadIgnoresOtherPagesWrites(t *testing.T) {
	g := &slowFirstRead{
		Backend: NewMem(psTest),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	e := NewEngine(g, Options{Workers: 1})
	defer e.Close()
	if err := e.Write(0, pattern(1, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	e.Barrier()
	got := make([]byte, psTest)
	read := make(chan error, 1)
	go func() { read <- e.Read(0, got) }()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("read never reached the backend")
	}
	if err := e.Write(psTest, pattern(2, psTest)); err != nil {
		t.Fatalf("Write of another page: %v", err)
	}
	close(g.release)
	if err := <-read; err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, pattern(1, psTest)) {
		t.Fatal("Read returned the wrong content")
	}
	if n := g.reads.Load(); n != 1 {
		t.Fatalf("%d backend reads of one page, want 1", n)
	}
}
