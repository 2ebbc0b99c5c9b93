package tier_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"chorusvm/internal/store"
	"chorusvm/internal/store/storetest"
	"chorusvm/internal/tier"
)

const ps = storetest.PageSize

// TestJournaledConformance runs the journaled store through the shared
// battery and the reopen check on its own, independent of the tier
// composition.
func TestJournaledConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T, ps int) store.Backend {
		j, err := tier.OpenJournaled(filepath.Join(t.TempDir(), "jrn"), ps)
		if err != nil {
			t.Fatalf("OpenJournaled: %v", err)
		}
		return j
	})
}

func TestJournaledReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jrn")
	storetest.RunReopen(t, func(t *testing.T) store.Backend {
		j, err := tier.OpenJournaled(path, storetest.PageSize)
		if err != nil {
			t.Fatalf("OpenJournaled: %v", err)
		}
		return j
	})
}

// TestCrashAfterAppend kills the store between the journal append and
// the data write: the mutation must be recovered, page-exact, by
// replay on reopen.
func TestCrashAfterAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jrn")
	j, err := tier.OpenJournaled(path, ps)
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	// Survivors written and made durable before the crash window.
	for i := int64(0); i < 3; i++ {
		if err := j.WriteAt(i*ps, storetest.Pattern(byte(i+1), ps)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The doomed write: journaled, never applied.
	j.SetCrashpoint(tier.CrashAfterAppend)
	doomed := storetest.Pattern(0xD0, ps)
	if err := j.WriteAt(7*ps, doomed); err == nil {
		t.Fatalf("WriteAt across the crashpoint succeeded, want simulated crash")
	}
	// The store is down: everything fails until reopen.
	if err := j.WriteAt(0, doomed); err == nil {
		t.Fatalf("WriteAt on a downed store succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j, err = tier.OpenJournaled(path, ps)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	// Replay recovered the journaled-but-unapplied write, page-exact.
	got := make([]byte, ps)
	if err := j.ReadAt(7*ps, got); err != nil {
		t.Fatalf("ReadAt recovered page: %v", err)
	}
	if !bytes.Equal(got, doomed) {
		t.Fatalf("recovered page differs from the journaled write")
	}
	// And the survivors are intact.
	for i := int64(0); i < 3; i++ {
		if err := j.ReadAt(i*ps, got); err != nil {
			t.Fatalf("ReadAt survivor %d: %v", i, err)
		}
		if !bytes.Equal(got, storetest.Pattern(byte(i+1), ps)) {
			t.Fatalf("survivor page %d corrupted", i)
		}
	}
	if j.Pages() != 4 {
		t.Fatalf("Pages() = %d after recovery, want 4", j.Pages())
	}
}

// TestCrashMidAppend kills the store halfway through the journal
// append: the torn record must be discarded on reopen — the mutation
// never happened — and the prior state must be intact.
func TestCrashMidAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jrn")
	j, err := tier.OpenJournaled(path, ps)
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	before := storetest.Pattern(0xAA, ps)
	if err := j.WriteAt(0, before); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	j.SetCrashpoint(tier.CrashMidAppend)
	if err := j.WriteAt(0, storetest.Pattern(0xBB, ps)); err == nil {
		t.Fatalf("WriteAt across the crashpoint succeeded, want simulated crash")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j, err = tier.OpenJournaled(path, ps)
	if err != nil {
		t.Fatalf("reopen with torn journal tail: %v", err)
	}
	defer j.Close()
	got := make([]byte, ps)
	if err := j.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, before) {
		t.Fatalf("torn record leaked into the page file")
	}
	// The reopen checkpointed the torn tail away: a second reopen must
	// see a clean journal.
	if err := j.WriteAt(ps, storetest.Pattern(0xCC, ps)); err != nil {
		t.Fatalf("WriteAt after recovery: %v", err)
	}
}

// TestJournalCheckpoint checks Sync bounds the journal: after a
// checkpoint the journal is back to its header, not accumulating every
// write forever.
func TestJournalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jrn")
	j, err := tier.OpenJournaled(path, ps)
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	defer j.Close()
	for i := int64(0); i < 8; i++ {
		if err := j.WriteAt(i*ps, storetest.Pattern(byte(i+1), ps)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	grown, err := os.Stat(path + ".jrn")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if grown.Size() <= 8 {
		t.Fatalf("journal did not grow under writes (size %d)", grown.Size())
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	trimmed, err := os.Stat(path + ".jrn")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if trimmed.Size() != 8 { // the "CVMJRN1\n" header
		t.Fatalf("journal size %d after checkpoint, want 8", trimmed.Size())
	}
}
