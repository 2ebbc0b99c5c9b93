package store

import "sync"

// Mem is the in-memory backend: a sparse map of pages standing in for a
// disk. It is the representation the original seg.Store used, moved
// behind the Backend interface.
type Mem struct {
	ps int64

	mu     sync.Mutex
	pages  map[int64][]byte // keyed by page-aligned offset
	closed bool
}

var _ Backend = (*Mem)(nil)

// NewMem creates an in-memory backend with the given page size.
func NewMem(pageSize int) *Mem {
	return &Mem{ps: int64(pageSize), pages: make(map[int64][]byte)}
}

// PageSize implements Backend.
func (m *Mem) PageSize() int { return int(m.ps) }

// ReadAt implements Backend.
func (m *Mem) ReadAt(off int64, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return forEachPage(m.ps, off, int64(len(buf)), func(po, b, bufOff, n int64) error {
		if pg, ok := m.pages[po]; ok {
			copy(buf[bufOff:bufOff+n], pg[b:b+n])
		} else {
			clear(buf[bufOff : bufOff+n])
		}
		return nil
	})
}

// WriteAt implements Backend.
func (m *Mem) WriteAt(off int64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return forEachPage(m.ps, off, int64(len(data)), func(po, b, bufOff, n int64) error {
		pg, ok := m.pages[po]
		if !ok {
			pg = make([]byte, m.ps)
			m.pages[po] = pg
		}
		copy(pg[b:b+n], data[bufOff:bufOff+n])
		return nil
	})
}

// Truncate implements Backend.
func (m *Mem) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for po := range m.pages {
		if po >= size {
			delete(m.pages, po)
		}
	}
	return nil
}

// Sync implements Backend (RAM is as durable as it gets).
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Pages implements Backend.
func (m *Mem) Pages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// Close implements Backend.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}
