package ipc

import (
	"bytes"
	"sync"
	"testing"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

const pg = 8192

func newKernel(t *testing.T) (*Kernel, gmi.MemoryManager) {
	t.Helper()
	clock := cost.New()
	mm := core.New(core.Options{
		Frames: 256, PageSize: pg, Clock: clock,
		SegAlloc: seg.NewSwapAllocator(pg, clock),
	})
	return NewKernel(mm, clock, 4), mm
}

func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

func TestSendReceiveBytes(t *testing.T) {
	k, _ := newKernel(t)
	p := k.AllocPort("test")
	want := pattern(0x42, 500) // inline path
	if err := p.SendBytes(want, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.ReceiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("inline message corrupted")
	}

	big := pattern(0x24, 40<<10) // transit path
	if err := p.SendBytes(big, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err = p.ReceiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("transit message corrupted")
	}
}

func TestSendReceiveViaCaches(t *testing.T) {
	k, mm := newKernel(t)
	p := k.AllocPort("data")

	src := mm.TempCacheCreate()
	want := pattern(0x11, 32<<10) // 4 pages: aligned, deferred
	if err := src.WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(src, 0, int64(len(want)), nil); err != nil {
		t.Fatal(err)
	}

	dst := mm.TempCacheCreate()
	n, _, err := p.Receive(dst, 0, MaxMessage)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("received %d bytes, want %d", n, len(want))
	}
	got := make([]byte, len(want))
	if err := dst.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache-to-cache message corrupted")
	}

	// The sender's data must be untouched even if the receiver scribbles.
	if err := dst.WriteAt(0, pattern(0x99, 100)); err != nil {
		t.Fatal(err)
	}
	check := make([]byte, len(want))
	if err := src.ReadAt(0, check); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, want) {
		t.Fatal("receiver write corrupted sender data")
	}
}

func TestMessageTooBig(t *testing.T) {
	k, mm := newKernel(t)
	p := k.AllocPort("big")
	src := mm.TempCacheCreate()
	if err := p.Send(src, 0, MaxMessage+1, nil); err != ErrTooBig {
		t.Fatalf("got %v, want ErrTooBig", err)
	}
}

func TestTransitSlotsRecycle(t *testing.T) {
	k, mm := newKernel(t) // 4 slots
	p := k.AllocPort("recycle")
	src := mm.TempCacheCreate()
	if err := src.WriteAt(0, pattern(0x01, 16<<10)); err != nil {
		t.Fatal(err)
	}
	dst := mm.TempCacheCreate()
	for i := 0; i < 20; i++ { // 5x the slot count
		if err := p.Send(src, 0, 16<<10, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, _, err := p.Receive(dst, 0, MaxMessage); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
	// Exhaustion without receives must fail cleanly.
	for i := 0; i < 4; i++ {
		if err := p.Send(src, 0, 16<<10, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := p.Send(src, 0, 16<<10, nil); err != ErrNoTransit {
		t.Fatalf("got %v, want ErrNoTransit", err)
	}
}

func TestCallServe(t *testing.T) {
	k, _ := newKernel(t)
	server := k.AllocPort("server")
	go server.Serve(func(req []byte) []byte {
		out := append([]byte("re: "), req...)
		return out
	})
	defer server.Destroy()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := pattern(byte(i), 64)
			resp, err := server.Call(req)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp[4:], req) {
				t.Errorf("call %d: response mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestCallEmptyReply answers a call with an empty body, the mapper
// protocol's failure reply. It travels inline like any small message and
// must reach the caller as an empty reply, not be mistaken for a
// transit-slot body.
func TestCallEmptyReply(t *testing.T) {
	k, _ := newKernel(t)
	server := k.AllocPort("server")
	go server.Serve(func(req []byte) []byte { return nil })
	defer server.Destroy()
	for i := 0; i < 2*k.nslots+1; i++ {
		resp, err := server.Call([]byte("req"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp) != 0 {
			t.Fatalf("call %d: reply %q, want empty", i, resp)
		}
	}
}

func TestPortDestroy(t *testing.T) {
	k, _ := newKernel(t)
	p := k.AllocPort("dying")
	p.Destroy()
	if _, _, err := p.ReceiveBytes(); err != ErrPortDead {
		t.Fatalf("got %v, want ErrPortDead", err)
	}
}
