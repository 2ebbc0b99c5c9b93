// Package tier holds Journaled, the crash-consistent page store that
// was the persistent cold tier of the deleted tiered composition. It is
// a redo log in front of a store.File. Nothing outside this package's
// tests builds it: no store kind, tool flag or script option selects
// it. It is kept, with its tests, until its own deletion (ROADMAP.md
// item 20).
package tier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"chorusvm/internal/store"
)

// Journaled is a crash-consistent page store: a redo log (intent log)
// in front of a store.File. Every mutation appends a checksummed record
// to <path>.jrn before touching the page file, so a crash between the
// journal append and the data write loses nothing — reopening replays
// every complete record. A torn record at the journal's tail (the crash
// landed mid-append) is detected by its checksum and discarded: the
// mutation never happened, the prior state is intact. Sync checkpoints:
// after the page file is durable the journal truncates back to its
// header, keeping replay cost proportional to the un-synced window.
//
// Record format, little-endian, after the "CVMJRN1\n" header:
//
//	[u8 op][u64 off][u32 n][u32 crc][n bytes payload]
//
// op 1 = write (off, payload), 2 = truncate (off = size), 3 = discard
// (off = page offset). The crc covers op, off, n and the payload, so a
// torn or bit-flipped record cannot replay.
type Journaled struct {
	mu     sync.Mutex
	inner  *store.File
	jrn    *os.File
	path   string
	ps     int64
	crash  Crashpoint
	downed bool // simulated crash happened: everything fails until reopen
	closed bool
}

const jrnMagic = "CVMJRN1\n"

// Journal ops.
const (
	jopWrite    = 1
	jopTruncate = 2
	jopDiscard  = 3
)

// Crashpoint selects where a simulated crash fires, for crash-replay
// tests. After the crash fires the store is dead — every operation
// fails, Close abandons without checkpointing — exactly as if the
// machine lost power there.
type Crashpoint int

const (
	// CrashNone runs normally.
	CrashNone Crashpoint = iota
	// CrashAfterAppend dies after the journal record is fully written
	// but before the data file sees the mutation: replay must recover
	// the mutation.
	CrashAfterAppend
	// CrashMidAppend dies halfway through writing the journal record:
	// replay must discard the torn record and keep the prior state.
	CrashMidAppend
)

var (
	_ store.Backend    = (*Journaled)(nil)
	_ store.Discarder  = (*Journaled)(nil)
	_ store.PageLister = (*Journaled)(nil)
)

// errCrashed is what operations return once the simulated crash fired.
var errCrashed = fmt.Errorf("tier: simulated crash")

// OpenJournaled opens (or creates) the journaled page store rooted at
// path: path+".pages"/".idx" via store.File, path+".jrn" the redo log.
// An existing journal replays onto the page file before the store
// serves I/O.
func OpenJournaled(path string, pageSize int) (*Journaled, error) {
	inner, err := store.NewFile(path, pageSize)
	if err != nil {
		return nil, err
	}
	jrn, err := os.OpenFile(path+".jrn", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		inner.Close()
		return nil, err
	}
	j := &Journaled{inner: inner, jrn: jrn, path: path, ps: int64(pageSize)}
	if err := j.replay(); err != nil {
		jrn.Close()
		inner.Close()
		return nil, err
	}
	return j, nil
}

// replay applies every complete, checksum-valid record to the page
// file, stops at the first torn one, then checkpoints.
func (j *Journaled) replay() error {
	raw, err := io.ReadAll(j.jrn)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		// Fresh journal: write the header.
		if _, err := j.jrn.Write([]byte(jrnMagic)); err != nil {
			return err
		}
		return nil
	}
	if len(raw) < len(jrnMagic) || string(raw[:len(jrnMagic)]) != jrnMagic {
		return fmt.Errorf("tier: %s.jrn: bad magic", j.path)
	}
	p := raw[len(jrnMagic):]
	replayed := 0
	for len(p) > 0 {
		op, off, payload, rest, ok := decodeRecord(p)
		if !ok {
			break // torn tail: the crash landed mid-append
		}
		p = rest
		switch op {
		case jopWrite:
			if err := j.inner.WriteAt(off, payload); err != nil {
				return err
			}
		case jopTruncate:
			if err := j.inner.Truncate(off); err != nil {
				return err
			}
		case jopDiscard:
			if err := j.inner.DiscardPage(off); err != nil {
				return err
			}
		default:
			return fmt.Errorf("tier: %s.jrn: unknown op %d", j.path, op)
		}
		replayed++
	}
	if replayed > 0 || len(p) > 0 {
		// Make the replayed state durable, then drop the journal back
		// to its header (also discarding any torn tail).
		if err := j.inner.Sync(); err != nil {
			return err
		}
		return j.checkpointLocked()
	}
	return nil
}

// encodeRecord builds one journal record.
func encodeRecord(op byte, off int64, payload []byte) []byte {
	rec := make([]byte, 0, 17+len(payload))
	rec = append(rec, op)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(off))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	crc := crc32.ChecksumIEEE(rec)
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	rec = append(rec, payload...)
	return rec
}

// decodeRecord parses one record off the front of p; ok is false for a
// short or checksum-invalid (torn) record.
func decodeRecord(p []byte) (op byte, off int64, payload, rest []byte, ok bool) {
	if len(p) < 17 {
		return 0, 0, nil, nil, false
	}
	op = p[0]
	off = int64(binary.LittleEndian.Uint64(p[1:9]))
	n := int(binary.LittleEndian.Uint32(p[9:13]))
	crc := binary.LittleEndian.Uint32(p[13:17])
	if len(p) < 17+n {
		return 0, 0, nil, nil, false
	}
	payload = p[17 : 17+n]
	want := crc32.ChecksumIEEE(p[:13])
	want = crc32.Update(want, crc32.IEEETable, payload)
	if crc != want {
		return 0, 0, nil, nil, false
	}
	return op, off, payload, p[17+n:], true
}

// append journals one record, firing the configured crashpoint; j.mu
// held. A fired crashpoint leaves the store downed.
func (j *Journaled) append(op byte, off int64, payload []byte) error {
	rec := encodeRecord(op, off, payload)
	if j.crash == CrashMidAppend {
		j.downed = true
		j.jrn.Write(rec[:len(rec)/2])
		return errCrashed
	}
	if _, err := j.jrn.Write(rec); err != nil {
		return err
	}
	if j.crash == CrashAfterAppend {
		j.downed = true
		return errCrashed
	}
	return nil
}

// checkpointLocked truncates the journal back to its header; j.mu (or
// open-time exclusivity) held. Callers ensure the page file is durable
// first.
func (j *Journaled) checkpointLocked() error {
	if err := j.jrn.Truncate(int64(len(jrnMagic))); err != nil {
		return err
	}
	if _, err := j.jrn.Seek(int64(len(jrnMagic)), io.SeekStart); err != nil {
		return err
	}
	return j.jrn.Sync()
}

// guard reports the blanket failure states; j.mu held.
func (j *Journaled) guard() error {
	if j.closed {
		return store.ErrClosed
	}
	if j.downed {
		return errCrashed
	}
	return nil
}

// SetCrashpoint arms (or disarms, CrashNone) the simulated crash.
func (j *Journaled) SetCrashpoint(cp Crashpoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crash = cp
}

// PageSize implements store.Backend.
func (j *Journaled) PageSize() int { return int(j.ps) }

// ReadAt implements store.Backend. Reads need no journaling: mutations
// apply through to the page file at write time, so it is always
// current.
func (j *Journaled) ReadAt(off int64, buf []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.guard(); err != nil {
		return err
	}
	return j.inner.ReadAt(off, buf)
}

// WriteAt implements store.Backend: journal the intent, then apply.
func (j *Journaled) WriteAt(off int64, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.guard(); err != nil {
		return err
	}
	if err := j.append(jopWrite, off, data); err != nil {
		return err
	}
	return j.inner.WriteAt(off, data)
}

// Truncate implements store.Backend.
func (j *Journaled) Truncate(size int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.guard(); err != nil {
		return err
	}
	if err := j.append(jopTruncate, size, nil); err != nil {
		return err
	}
	return j.inner.Truncate(size)
}

// DiscardPage implements store.Discarder.
func (j *Journaled) DiscardPage(off int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.guard(); err != nil {
		return err
	}
	if err := j.append(jopDiscard, off, nil); err != nil {
		return err
	}
	return j.inner.DiscardPage(off)
}

// Sync implements store.Backend: make the page file durable, then
// checkpoint the journal.
func (j *Journaled) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.guard(); err != nil {
		return err
	}
	if err := j.inner.Sync(); err != nil {
		return err
	}
	return j.checkpointLocked()
}

// PageOffsets implements store.PageLister.
func (j *Journaled) PageOffsets() []int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.downed {
		return nil
	}
	return j.inner.PageOffsets()
}

// Pages implements store.Backend.
func (j *Journaled) Pages() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.downed {
		return 0
	}
	return j.inner.Pages()
}

// Close implements store.Backend. A downed (crashed) store must not
// checkpoint: the journal is the recovery story, and truncating it
// would destroy the very records replay needs. Closing the page file
// itself is safe — replay is idempotent redo, so the page file holding
// any prefix of the applied state recovers to the same place.
func (j *Journaled) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.downed {
		j.jrn.Close()
		j.inner.Close()
		return nil
	}
	var firstErr error
	if err := j.inner.Sync(); err != nil {
		firstErr = err
	}
	if err := j.checkpointLocked(); firstErr == nil && err != nil {
		firstErr = err
	}
	if err := j.jrn.Close(); firstErr == nil && err != nil {
		firstErr = err
	}
	if err := j.inner.Close(); firstErr == nil && err != nil {
		firstErr = err
	}
	return firstErr
}
