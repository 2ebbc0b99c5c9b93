package store

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Engine worker lifetime: workers start on demand, up to
// Options.Workers, park while idle, hold nothing of a finished request,
// and are gone when Close returns.

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// engineWorkers counts live goroutines parked in or running an engine
// worker, across every engine in the process.
func engineWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("store.(*Engine).worker("))
}

// TestEngineReusesWorkers: a long run of page-ins, each submitted after
// the previous one completed, runs on at most Options.Workers
// goroutines; an engine whose workers exited on every drain started a
// fresh goroutine per request.
func TestEngineReusesWorkers(t *testing.T) {
	const workers, reads = 2, 1000
	e := NewEngine(NewMem(psTest), Options{Workers: workers})
	defer e.Close()
	if err := e.Write(0, pattern(3, psTest)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	e.Barrier()
	ran := make(map[int]bool)
	done := make(chan int)
	dst := [][]byte{make([]byte, psTest)}
	for i := 0; i < reads; i++ {
		e.ReadAsync(0, dst, func(err error) {
			if err != nil {
				t.Errorf("ReadAsync: %v", err)
			}
			done <- goid()
		})
		ran[<-done] = true
	}
	if len(ran) > workers {
		t.Fatalf("%d sequential ReadAsync calls ran on %d goroutines, want at most %d", reads, len(ran), workers)
	}
	if !bytes.Equal(dst[0], pattern(3, psTest)) {
		t.Fatal("ReadAsync returned wrong bytes")
	}
}

// TestEngineCloseStopsWorkers: Close returns only once every worker it
// started has exited, and a second Close returns nil.
func TestEngineCloseStopsWorkers(t *testing.T) {
	before := engineWorkers()
	e := NewEngine(NewMem(psTest), Options{Workers: 4})
	// Writeback and async reads together start every worker.
	for i := 0; i < 32; i++ {
		if err := e.Write(int64(i)*psTest, pattern(byte(i), psTest)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		e.ReadAsync(int64(i)*psTest, [][]byte{make([]byte, psTest)}, func(err error) { done <- err })
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("ReadAsync: %v", err)
		}
	}
	if engineWorkers() == before {
		t.Fatal("the engine started no worker")
	}
	// Close must wait for a worker that is still inside a completion.
	entered, release := make(chan struct{}), make(chan struct{})
	e.ReadAsync(0, [][]byte{make([]byte, psTest)}, func(error) {
		close(entered)
		<-release
	})
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a worker was inside a completion", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := engineWorkers() - before; n != 0 {
		t.Fatalf("%d engine workers still running after Close returned", n)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestEngineIdleHoldsNoFinishedRequest: once a request has completed,
// nothing in an idle engine keeps its completion reachable. The memory
// manager's completions reach the whole memory manager, so a parked
// worker that kept one would keep a torn-down memory manager alive.
func TestEngineIdleHoldsNoFinishedRequest(t *testing.T) {
	e := NewEngine(NewMem(psTest), Options{Workers: 1})
	defer e.Close()
	collected := make(chan struct{})
	completed := make(chan error, 1)
	func() {
		// payload stands in for what a completion reaches.
		payload := new([1024]byte)
		runtime.SetFinalizer(payload, func(*[1024]byte) { close(collected) })
		e.ReadAsync(0, [][]byte{make([]byte, psTest)}, func(err error) {
			payload[0]++
			completed <- err
		})
	}()
	if err := <-completed; err != nil {
		t.Fatalf("ReadAsync: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a completed request's closure is still reachable from the idle engine")
		}
	}
}
