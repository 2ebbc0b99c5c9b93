package phys

import (
	"sync"
	"sync/atomic"
	"time"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
)

// zeroPool is the pre-zeroed frame cache. A background zeroer goroutine
// (StartZeroer) pulls frames from the depot, zeroes them off the fault
// path, and parks them here for AllocZeroed. Frames in the pool — and the
// one frame momentarily in the zeroer's hands — stay counted in avail:
// they are still allocatable (a starved raw Alloc steals them), the
// zeroing is purely a head start.
type zeroPool struct {
	mu        sync.Mutex
	fr        []*Frame
	low, high int
	running   bool

	wake chan struct{} // buffered(1): nudge the zeroer below the low mark
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartZeroer starts the background zeroer with the given water marks: it
// refills the pre-zeroed pool up to high whenever woken (an AllocZeroed
// or Free that leaves the pool below low, or its periodic tick) and
// sleeps in between. The returned stop function is idempotent and blocks
// until the goroutine exits; the zeroer may be restarted afterwards.
// Starting while one is already running is a no-op returning a no-op
// stop.
//
// The zeroer takes frames only from the depot — never from magazines —
// so it cannot fight the fault path for its cached frames.
func (m *Memory) StartZeroer(low, high int) (stop func()) {
	if high <= 0 || low < 0 || low > high {
		panic("phys: bad zeroer water marks")
	}
	z := &m.zero
	z.mu.Lock()
	if z.running {
		z.mu.Unlock()
		return func() {}
	}
	z.running = true
	z.low, z.high = low, high
	z.wake = make(chan struct{}, 1)
	z.stop = make(chan struct{})
	z.wg.Add(1)
	wake, stopCh := z.wake, z.stop
	z.mu.Unlock()

	go m.zeroLoop(wake, stopCh)

	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			z.wg.Wait()
			z.mu.Lock()
			z.running = false
			z.mu.Unlock()
		})
	}
}

// zeroLoop is the zeroer goroutine body. The wake/stop channels are
// passed in (rather than re-read from the struct) so a stop-then-restart
// cannot race this loop against its successor's channels.
func (m *Memory) zeroLoop(wake, stop <-chan struct{}) {
	defer m.zero.wg.Done()
	// The ticker is a fallback for missed wakes (frames freed while the
	// pool sat between its marks); the wake channel is the fast path.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		m.zeroFillPool(stop)
		select {
		case <-stop:
			return
		case <-wake:
		case <-tick.C:
		}
	}
}

// zeroFillPool pulls depot frames, zeroes them and parks them until the
// pool reaches its high mark or the depot runs dry. One frame at a time:
// the frame in hand stays counted in avail, so a ticket holder chasing it
// only ever waits out a single bzero.
func (m *Memory) zeroFillPool(stop <-chan struct{}) {
	z := &m.zero
	for {
		select {
		case <-stop:
			return
		default:
		}
		z.mu.Lock()
		need := len(z.fr) < z.high
		z.mu.Unlock()
		if !need {
			return
		}
		var one [1]*Frame
		if m.depotPopN(one[:]) == 0 {
			return // depot dry; freed frames will kick us
		}
		f := one[0]
		start := m.tracer.Clock()
		clear(f.Data)
		m.clock.Charge(cost.EvBzeroPage, 1)
		m.tracer.Span(obs.KindFrameZero, obs.OpFrameZero, int64(f.Index), 0, start)
		atomic.AddUint64(&m.stats.FramesZeroed, 1)
		z.mu.Lock()
		z.fr = append(z.fr, f)
		z.mu.Unlock()
	}
}

// kickZeroer wakes the zeroer if it is running and the pool is below its
// low mark. Non-blocking: a pending wake is as good as two.
func (m *Memory) kickZeroer() {
	z := &m.zero
	z.mu.Lock()
	if !z.running || len(z.fr) >= z.low {
		z.mu.Unlock()
		return
	}
	wake := z.wake
	z.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// zeroPop removes one frame from the pre-zeroed pool, or nil. Used both
// by AllocZeroed (a pool hit) and by ticket redemption stealing the pool
// as a last resort. Never touches avail.
func (m *Memory) zeroPop() *Frame {
	z := &m.zero
	z.mu.Lock()
	n := len(z.fr)
	if n == 0 {
		z.mu.Unlock()
		return nil
	}
	f := z.fr[n-1]
	z.fr[n-1] = nil
	z.fr = z.fr[:n-1]
	z.mu.Unlock()
	return f
}

// ZeroPoolSize returns the current number of pre-zeroed frames parked in
// the pool.
func (m *Memory) ZeroPoolSize() int {
	m.zero.mu.Lock()
	defer m.zero.mu.Unlock()
	return len(m.zero.fr)
}

// AllocZeroed returns a frame whose contents are all zero. A pool hit
// skips the in-fault bzero entirely (the background zeroer already paid
// it); a miss falls back to Alloc-and-Zero, identical in cost and
// behaviour to the pre-pool fault path. Misses are counted whether or not
// a zeroer is running, so the counters also reveal "pool never enabled".
func (m *Memory) AllocZeroed() (*Frame, error) {
	if !m.claimAvail() {
		atomic.AddUint64(&m.stats.ZeroPoolMisses, 1)
		m.tracer.Emit(obs.KindFramePoolMiss, 0, 0)
		return nil, gmi.ErrNoMemory
	}
	if f := m.zeroPop(); f != nil {
		markAllocated(f)
		m.clock.Charge(cost.EvFrameAlloc, 1)
		atomic.AddUint64(&m.stats.ZeroPoolHits, 1)
		m.tracer.Emit(obs.KindFramePoolHit, int64(f.Index), 0)
		m.kickZeroer()
		return f, nil
	}
	atomic.AddUint64(&m.stats.ZeroPoolMisses, 1)
	m.tracer.Emit(obs.KindFramePoolMiss, 0, 0)
	m.kickZeroer()
	f := m.findFrame()
	m.clock.Charge(cost.EvFrameAlloc, 1)
	m.Zero(f)
	return f, nil
}
