package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
)

// File is a persistent page-file backend. Pages live in fixed-size slots
// of <path>.pages; <path>.idx maps logical page offsets to slots and
// records a crc32 per page, verified on every read. Slots freed by
// Truncate go to a free-extent allocator (sorted, coalescing), so a
// long-lived page file reuses holes instead of growing forever. Sync
// rewrites the index atomically (temp file + rename) after fsyncing the
// data, so a crash between syncs loses at most the writes since the last
// one — never the index's internal consistency. The per-page crc32 is
// recorded at write time, persisted in the index across reopen and
// checked on every page returned, so an Engine over a bare File leaves
// the integrity check to it.
type File struct {
	ps   int64
	path string // base path; .pages and .idx are derived

	mu     sync.Mutex
	data   *os.File
	slots  map[int64]int64  // logical page offset -> slot index
	crcs   map[int64]uint32 // logical page offset -> crc32 of content
	free   []extent         // free slots, sorted by start, coalesced
	nslots int64            // slots ever allocated (file length in slots)
	closed bool
}

// extent is a run of free slots [start, start+n).
type extent struct{ start, n int64 }

var _ Backend = (*File)(nil)

const idxMagic = "CVMSTR1\n"

// NewFile opens (or creates) the page file rooted at path: path+".pages"
// holds the slots, path+".idx" the page table. An existing index is
// reloaded, so previously written pages are visible again — the
// persistence the in-memory backends cannot offer.
func NewFile(path string, pageSize int) (*File, error) {
	data, err := os.OpenFile(path+".pages", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	f := &File{
		ps:    int64(pageSize),
		path:  path,
		data:  data,
		slots: make(map[int64]int64),
		crcs:  make(map[int64]uint32),
	}
	if err := f.loadIndex(); err != nil {
		data.Close()
		return nil, err
	}
	return f, nil
}

// loadIndex reads path.idx, rebuilding the slot map and computing the
// free extents as the complement of the used slots.
func (f *File) loadIndex() error {
	raw, err := os.ReadFile(f.path + ".idx")
	if os.IsNotExist(err) {
		return nil // fresh store
	}
	if err != nil {
		return err
	}
	if len(raw) < len(idxMagic)+12 || string(raw[:len(idxMagic)]) != idxMagic {
		return fmt.Errorf("store: %s.idx: bad magic", f.path)
	}
	p := raw[len(idxMagic):]
	ps := int64(binary.LittleEndian.Uint32(p[0:4]))
	if ps != f.ps {
		return fmt.Errorf("store: %s.idx: page size %d, want %d", f.path, ps, f.ps)
	}
	count := binary.LittleEndian.Uint64(p[4:12])
	p = p[12:]
	if uint64(len(p)) < count*20 {
		return fmt.Errorf("store: %s.idx: truncated (%d entries claimed)", f.path, count)
	}
	used := make([]int64, 0, count)
	for i := uint64(0); i < count; i++ {
		e := p[i*20:]
		off := int64(binary.LittleEndian.Uint64(e[0:8]))
		slot := int64(binary.LittleEndian.Uint64(e[8:16]))
		f.slots[off] = slot
		f.crcs[off] = binary.LittleEndian.Uint32(e[16:20])
		used = append(used, slot)
		if slot >= f.nslots {
			f.nslots = slot + 1
		}
	}
	// Free extents: the gaps between used slots in [0, nslots).
	sort.Slice(used, func(i, j int) bool { return used[i] < used[j] })
	next := int64(0)
	for _, s := range used {
		if s > next {
			f.free = append(f.free, extent{next, s - next})
		}
		next = s + 1
	}
	return nil
}

// writeIndex persists the page table atomically; f.mu held.
func (f *File) writeIndex() error {
	buf := make([]byte, 0, len(idxMagic)+12+len(f.slots)*20)
	buf = append(buf, idxMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.ps))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.slots)))
	offs := make([]int64, 0, len(f.slots))
	for off := range f.slots {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.slots[off]))
		buf = binary.LittleEndian.AppendUint32(buf, f.crcs[off])
	}
	tmp := f.path + ".idx.tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.path+".idx")
}

// allocSlot takes the lowest free slot, extending the file if none;
// f.mu held.
func (f *File) allocSlot() int64 {
	if len(f.free) > 0 {
		e := &f.free[0]
		s := e.start
		e.start++
		e.n--
		if e.n == 0 {
			f.free = f.free[1:]
		}
		return s
	}
	s := f.nslots
	f.nslots++
	return s
}

// freeSlot returns a slot to the allocator, coalescing with neighbouring
// extents; f.mu held.
func (f *File) freeSlot(s int64) {
	i := sort.Search(len(f.free), func(i int) bool { return f.free[i].start > s })
	// Merge with the extent before and/or after.
	joinPrev := i > 0 && f.free[i-1].start+f.free[i-1].n == s
	joinNext := i < len(f.free) && s+1 == f.free[i].start
	switch {
	case joinPrev && joinNext:
		f.free[i-1].n += 1 + f.free[i].n
		f.free = append(f.free[:i], f.free[i+1:]...)
	case joinPrev:
		f.free[i-1].n++
	case joinNext:
		f.free[i].start--
		f.free[i].n++
	default:
		f.free = append(f.free, extent{})
		copy(f.free[i+1:], f.free[i:])
		f.free[i] = extent{s, 1}
	}
}

// PageSize implements Backend.
func (f *File) PageSize() int { return int(f.ps) }

// readPage fills dst with the page at logical offset po, verifying the
// recorded checksum; f.mu held.
func (f *File) readPage(po int64, dst []byte) error {
	slot, ok := f.slots[po]
	if !ok {
		clear(dst)
		return nil
	}
	if _, err := f.data.ReadAt(dst, slot*f.ps); err != nil {
		return fmt.Errorf("store: %s.pages slot %d: %w", f.path, slot, err)
	}
	if crc32.ChecksumIEEE(dst) != f.crcs[po] {
		return corruptAt("file", po)
	}
	return nil
}

// writePage stores one full page at logical offset po; f.mu held.
func (f *File) writePage(po int64, pg []byte) error {
	slot, ok := f.slots[po]
	if !ok {
		slot = f.allocSlot()
	}
	if _, err := f.data.WriteAt(pg, slot*f.ps); err != nil {
		if !ok {
			f.freeSlot(slot)
		}
		return fmt.Errorf("store: %s.pages slot %d: %w", f.path, slot, err)
	}
	f.slots[po] = slot
	f.crcs[po] = crc32.ChecksumIEEE(pg)
	return nil
}

// ReadAt implements Backend.
func (f *File) ReadAt(off int64, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	var scratch []byte // only a partial page needs one
	return forEachPage(f.ps, off, int64(len(buf)), func(po, b, bufOff, n int64) error {
		if n == f.ps {
			return f.readPage(po, buf[bufOff:bufOff+n])
		}
		if scratch == nil {
			scratch = make([]byte, f.ps)
		}
		if err := f.readPage(po, scratch); err != nil {
			return err
		}
		copy(buf[bufOff:bufOff+n], scratch[b:b+n])
		return nil
	})
}

// WriteAt implements Backend.
func (f *File) WriteAt(off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	var scratch []byte // only a partial page needs one
	return forEachPage(f.ps, off, int64(len(data)), func(po, b, bufOff, n int64) error {
		if n == f.ps {
			return f.writePage(po, data[bufOff:bufOff+n])
		}
		// Partial page: read-modify-write the whole slot.
		if scratch == nil {
			scratch = make([]byte, f.ps)
		}
		if err := f.readPage(po, scratch); err != nil {
			return err
		}
		copy(scratch[b:b+n], data[bufOff:bufOff+n])
		return f.writePage(po, scratch)
	})
}

// Truncate implements Backend.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	for po, slot := range f.slots {
		if po >= size {
			delete(f.slots, po)
			delete(f.crcs, po)
			f.freeSlot(slot)
		}
	}
	if len(f.slots) == 0 {
		// Everything freed: shrink the data file and reset the allocator.
		if err := f.data.Truncate(0); err != nil {
			return err
		}
		f.free, f.nslots = nil, 0
	}
	return nil
}

// Sync implements Backend: fsync the data, then atomically rewrite the
// index. The order matters — an index must never describe slots the data
// file does not yet durably hold.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.data.Sync(); err != nil {
		return err
	}
	return f.writeIndex()
}

// DiscardPage implements Discarder: the page's slot goes back to the
// free-extent allocator.
func (f *File) DiscardPage(off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	po := off &^ (f.ps - 1)
	if slot, ok := f.slots[po]; ok {
		delete(f.slots, po)
		delete(f.crcs, po)
		f.freeSlot(slot)
	}
	return nil
}

// PageOffsets implements PageLister.
func (f *File) PageOffsets() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	offs := make([]int64, 0, len(f.slots))
	for po := range f.slots {
		offs = append(offs, po)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// Pages implements Backend.
func (f *File) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slots)
}

// Close implements Backend (implies Sync).
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	var firstErr error
	if err := f.data.Sync(); err != nil {
		firstErr = err
	}
	if err := f.writeIndex(); firstErr == nil && err != nil {
		firstErr = err
	}
	if err := f.data.Close(); firstErr == nil && err != nil {
		firstErr = err
	}
	f.closed = true
	return firstErr
}

// FreeExtents reports the free-slot runs (tests inspect coalescing).
func (f *File) FreeExtents() [][2]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][2]int64, len(f.free))
	for i, e := range f.free {
		out[i] = [2]int64{e.start, e.n}
	}
	return out
}
