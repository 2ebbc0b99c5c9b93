// Package ipc implements the Chorus Nucleus IPC the paper's section 5.1.6
// describes: ports with message queues, messages of at most 64 KB, and a
// kernel transit segment of 64 KB slots through which message bodies
// travel. IPC is decoupled from memory management — it never creates,
// destroys or resizes regions — but uses cache.copy/cache.move (and hence
// the per-page deferred copy and move retagging) to transport bodies.
package ipc

import (
	"errors"
	"fmt"
	"sync"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/seg"
)

// MaxMessage is the message size limit (64 KB in the paper's Chorus).
const MaxMessage = 64 << 10

// Errors returned by IPC operations.
var (
	ErrTooBig     = errors.New("ipc: message exceeds 64 KB")
	ErrPortDead   = errors.New("ipc: port destroyed")
	ErrNoTransit  = errors.New("ipc: transit segment exhausted")
	errBadReceive = errors.New("ipc: receive buffer smaller than message")
)

// Kernel is the per-site IPC machinery: the port namespace and the transit
// segment.
type Kernel struct {
	mm    gmi.MemoryManager
	clock *cost.Clock

	transit  gmi.Cache
	slotSize int64
	slots    chan int64 // free slot offsets
	nslots   int

	mu     sync.Mutex
	nextID uint64

	// tr observes message-transfer latency (set before use; nil-safe).
	tr *obs.Tracer
}

// NewKernel creates the IPC machinery over a memory manager. nslots is the
// number of 64 KB transit slots (default 16).
func NewKernel(mm gmi.MemoryManager, clock *cost.Clock, nslots int) *Kernel {
	if nslots <= 0 {
		nslots = 16
	}
	// The transit segment is backed by an in-process store (not an IPC
	// mapper): transit pages pushed out under memory pressure must not
	// recurse into IPC, which would itself need transit slots.
	k := &Kernel{
		mm:       mm,
		clock:    clock,
		transit:  mm.CacheCreate(seg.NewSegment("transit", mm.PageSize(), clock)),
		slotSize: MaxMessage,
		slots:    make(chan int64, nslots),
		nslots:   nslots,
	}
	for i := 0; i < nslots; i++ {
		k.slots <- int64(i) * k.slotSize
	}
	return k
}

// SetTracer attaches an observability tracer. Call before the kernel
// starts moving messages; a nil tracer (the default) disables the probes.
func (k *Kernel) SetTracer(t *obs.Tracer) { k.tr = t }

// message is a queued message: its body lives in a transit slot (or inline
// for tiny control messages).
type message struct {
	slot   int64 // transit slot offset; -1 for an inline body
	size   int64
	inline []byte // used instead of a slot when small (nil when empty)
	reply  *Port
}

// Port is a message address plus a queue of received-but-unconsumed
// messages.
type Port struct {
	k    *Kernel
	id   uint64
	name string

	mu     sync.Mutex
	queue  chan *message
	closed bool
}

// AllocPort creates a port with the given queue depth (default 64).
func (k *Kernel) AllocPort(name string) *Port {
	k.mu.Lock()
	k.nextID++
	id := k.nextID
	k.mu.Unlock()
	return &Port{k: k, id: id, name: name, queue: make(chan *message, 64)}
}

// ID returns the port's unique name on the site.
func (p *Port) ID() uint64 { return p.id }

// String identifies the port for diagnostics.
func (p *Port) String() string { return fmt.Sprintf("port(%d,%s)", p.id, p.name) }

// Destroy closes the port; pending and future receives fail.
func (p *Port) Destroy() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
}

// inlineLimit is the size below which copying through a transit slot costs
// more than it saves; such bodies travel inline (the paper's bcopy case).
const inlineLimit = 1024

// Send transmits size bytes taken from (src, off) to the port. Large
// page-aligned bodies move through a transit slot with cache.copy (the
// per-page deferred copy); small ones are bcopied.
func (p *Port) Send(src gmi.Cache, off, size int64, reply *Port) error {
	if size > MaxMessage {
		return ErrTooBig
	}
	k := p.k
	k.clock.Charge(cost.EvIPCSend, 1)
	start := k.tr.Clock()
	m := &message{size: size, reply: reply, slot: -1}
	if size <= inlineLimit {
		m.inline = make([]byte, size)
		if err := src.ReadAt(off, m.inline); err != nil {
			return err
		}
	} else {
		slot, err := k.allocSlot()
		if err != nil {
			return err
		}
		if err := src.Copy(k.transit, slot, off, size); err != nil {
			k.slots <- slot
			return err
		}
		m.slot = slot
	}
	err := p.enqueue(m)
	k.tr.Span(obs.KindIPCSend, obs.OpIPCSend, int64(p.id), size, start)
	return err
}

// SendBytes transmits a byte slice (for control messages and the mapper
// protocol); bodies above the inline limit still travel through transit.
func (p *Port) SendBytes(data []byte, reply *Port) error {
	if int64(len(data)) > MaxMessage {
		return ErrTooBig
	}
	k := p.k
	k.clock.Charge(cost.EvIPCSend, 1)
	start := k.tr.Clock()
	m := &message{size: int64(len(data)), reply: reply, slot: -1}
	if len(data) <= inlineLimit {
		m.inline = append([]byte(nil), data...)
	} else {
		slot, err := k.allocSlot()
		if err != nil {
			return err
		}
		if err := k.transit.WriteAt(slot, data); err != nil {
			k.slots <- slot
			return err
		}
		m.slot = slot
	}
	err := p.enqueue(m)
	k.tr.Span(obs.KindIPCSend, obs.OpIPCSend, int64(p.id), int64(len(data)), start)
	return err
}

func (p *Port) enqueue(m *message) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		p.k.releaseMsg(m)
		return ErrPortDead
	}
	defer func() {
		if recover() != nil {
			p.k.releaseMsg(m)
		}
	}()
	p.queue <- m
	return nil
}

// Receive delivers the next message body into (dst, off) and returns its
// size and reply port. Transit-slot bodies use cache.move, which retags
// the slot's page frames into the destination instead of copying.
func (p *Port) Receive(dst gmi.Cache, off int64, max int64) (int64, *Port, error) {
	m, ok := <-p.queue
	if !ok {
		return 0, nil, ErrPortDead
	}
	k := p.k
	k.clock.Charge(cost.EvIPCRecv, 1)
	// The span starts after the queue wait: it measures the body
	// transfer (move or bcopy), not how long the message sat queued.
	start := k.tr.Clock()
	if m.size > max {
		k.releaseMsg(m)
		return 0, nil, errBadReceive
	}
	if m.slot < 0 {
		if err := dst.WriteAt(off, m.inline); err != nil {
			return 0, nil, err
		}
		k.tr.Span(obs.KindIPCRecv, obs.OpIPCRecv, int64(p.id), m.size, start)
		return m.size, m.reply, nil
	}
	moveSize := m.size
	if r := moveSize % int64(k.mm.PageSize()); r != 0 {
		moveSize += int64(k.mm.PageSize()) - r
	}
	err := k.transit.Move(dst, off, m.slot, moveSize)
	k.slots <- m.slot
	if err != nil {
		return 0, nil, err
	}
	k.tr.Span(obs.KindIPCRecv, obs.OpIPCRecv, int64(p.id), m.size, start)
	return m.size, m.reply, nil
}

// ReceiveBytes delivers the next message as a byte slice.
func (p *Port) ReceiveBytes() ([]byte, *Port, error) {
	m, ok := <-p.queue
	if !ok {
		return nil, nil, ErrPortDead
	}
	k := p.k
	k.clock.Charge(cost.EvIPCRecv, 1)
	start := k.tr.Clock()
	if m.slot < 0 {
		k.tr.Span(obs.KindIPCRecv, obs.OpIPCRecv, int64(p.id), m.size, start)
		return m.inline, m.reply, nil
	}
	buf := make([]byte, m.size)
	err := k.transit.ReadAt(m.slot, buf)
	// The slot is consumed either way; invalidate so stale data is not
	// resurrected by the next occupant.
	_ = k.transit.Invalidate(m.slot, k.slotSize)
	k.slots <- m.slot
	if err != nil {
		return nil, nil, err
	}
	k.tr.Span(obs.KindIPCRecv, obs.OpIPCRecv, int64(p.id), m.size, start)
	return buf, m.reply, nil
}

func (k *Kernel) allocSlot() (int64, error) {
	select {
	case s := <-k.slots:
		return s, nil
	default:
		return 0, ErrNoTransit
	}
}

func (k *Kernel) releaseMsg(m *message) {
	if m != nil && m.slot >= 0 {
		k.slots <- m.slot
	}
}

// Call sends req to the port and blocks for the reply — the RPC shape the
// segment manager uses to talk to mappers (section 5.1.2).
func (p *Port) Call(req []byte) ([]byte, error) {
	reply := p.k.AllocPort("reply")
	defer reply.Destroy()
	if err := p.SendBytes(req, reply); err != nil {
		return nil, err
	}
	resp, _, err := reply.ReceiveBytes()
	return resp, err
}

// Serve runs a request loop on the port: each received message is passed
// to handle, whose return value is sent to the reply port. Serve returns
// when the port is destroyed.
func (p *Port) Serve(handle func(req []byte) []byte) {
	for {
		req, reply, err := p.ReceiveBytes()
		if err != nil {
			return
		}
		resp := handle(req)
		if reply != nil {
			_ = reply.SendBytes(resp, nil)
		}
	}
}
