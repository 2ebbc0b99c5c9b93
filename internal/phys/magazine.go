package phys

import (
	"sync"
	"sync/atomic"
)

// magCap is the magazine size: the batch unit for depot refills and
// flushes. Small enough that a handful of magazines cannot strand a
// meaningful fraction of a realistic pool, large enough that depot
// traffic drops to 1/magCap of the allocation rate.
const magCap = 8

// magazine is one per-shard frame cache. Padding keeps neighbouring
// magazines on distinct cache lines so their locks do not false-share.
type magazine struct {
	mu sync.Mutex
	fr [magCap]*Frame
	n  int
	_  [64]byte
}

// pick spreads callers over magazines with an atomic round-robin cursor.
// (A goroutine has no stable CPU identity visible to Go code; round-robin
// gets the same contention spread without per-CPU hooks.)
func (m *Memory) pick() *magazine {
	return &m.mags[atomic.AddUint32(&m.rr, 1)&m.magMask]
}

// magPop pops a frame from one magazine, refilling it with a batch from
// the depot when empty. Returns nil when both are dry. Never touches
// avail: callers hold a claimed ticket.
func (m *Memory) magPop() *Frame {
	mag := m.pick()
	mag.mu.Lock()
	if mag.n > 0 {
		mag.n--
		f := mag.fr[mag.n]
		mag.fr[mag.n] = nil
		mag.mu.Unlock()
		return f
	}
	// Refill: one depot transaction pulls up to magCap frames; the first
	// satisfies the caller, the rest stay cached.
	var batch [magCap]*Frame
	got := m.depotPopN(batch[:])
	if got == 0 {
		mag.mu.Unlock()
		return nil
	}
	f := batch[0]
	copy(mag.fr[:], batch[1:got])
	mag.n = got - 1
	mag.mu.Unlock()
	atomic.AddUint64(&m.stats.MagazineRefills, 1)
	return f
}

// magFree returns a frame to a magazine, flushing the whole magazine back
// to the depot in one transaction when full.
func (m *Memory) magFree(f *Frame) {
	mag := m.pick()
	mag.mu.Lock()
	if mag.n == magCap {
		var batch [magCap]*Frame
		copy(batch[:], mag.fr[:])
		for i := range mag.fr {
			mag.fr[i] = nil
		}
		mag.n = 0
		m.depotPushN(batch[:])
		atomic.AddUint64(&m.stats.MagazineFlushes, 1)
	}
	mag.fr[mag.n] = f
	mag.n++
	mag.mu.Unlock()
}

// stealMag pops one frame from any non-empty magazine — the ticket-
// redemption path's defence against frames stranded in other shards'
// caches.
func (m *Memory) stealMag() *Frame {
	for i := range m.mags {
		mag := &m.mags[i]
		mag.mu.Lock()
		if mag.n > 0 {
			mag.n--
			f := mag.fr[mag.n]
			mag.fr[mag.n] = nil
			mag.mu.Unlock()
			return f
		}
		mag.mu.Unlock()
	}
	return nil
}

// depotPopN pops up to len(dst) frames from the depot free list in one
// transaction, returning how many it got.
func (m *Memory) depotPopN(dst []*Frame) int {
	m.mu.Lock()
	n := 0
	for n < len(dst) && m.freeHead != nil {
		f := m.freeHead
		m.freeHead = f.next
		f.next = nil
		dst[n] = f
		n++
	}
	m.freeN -= n
	m.mu.Unlock()
	return n
}

// depotPushN pushes every frame onto the depot free list in one
// transaction.
func (m *Memory) depotPushN(fs []*Frame) {
	m.mu.Lock()
	for _, f := range fs {
		f.next = m.freeHead
		m.freeHead = f
	}
	m.freeN += len(fs)
	m.mu.Unlock()
}
