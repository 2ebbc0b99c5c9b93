package seg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/store"
)

const pg = 8192

func TestStoreSparseReadWrite(t *testing.T) {
	st := NewStore(pg, cost.New())
	// Never-written pages read as zero.
	buf := make([]byte, 100)
	st.ReadAt(5*pg, buf)
	if !bytes.Equal(buf, make([]byte, 100)) {
		t.Fatal("sparse read not zero")
	}
	// Cross-page unaligned write/read round trip.
	data := []byte("across the page boundary")
	st.WriteAt(pg-10, data)
	got := make([]byte, len(data))
	st.ReadAt(pg-10, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip failed")
	}
	if st.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", st.Pages())
	}
}

// TestStoreOracle quick-checks the store against a flat byte slice.
func TestStoreOracle(t *testing.T) {
	type op struct {
		Off  uint16
		Len  uint8
		Seed uint8
	}
	f := func(ops []op) bool {
		st := NewStore(pg, cost.New())
		model := make([]byte, 4*pg)
		for _, o := range ops {
			off := int64(o.Off) % int64(len(model)-1)
			n := int(o.Len)%256 + 1
			if off+int64(n) > int64(len(model)) {
				n = int(int64(len(model)) - off)
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = o.Seed ^ byte(i)
			}
			st.WriteAt(off, data)
			copy(model[off:], data)
		}
		got := make([]byte, len(model))
		st.ReadAt(0, got)
		return bytes.Equal(got, model)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// fakeCache implements just enough gmi.Cache for segment round trips.
type fakeCache struct {
	gmi.Cache
	filled []byte
	mode   gmi.Prot
	data   []byte
}

func (f *fakeCache) FillUp(off int64, data []byte, mode gmi.Prot) error {
	f.filled = append([]byte(nil), data...)
	f.mode = mode
	return nil
}

func (f *fakeCache) CopyBack(off int64, buf []byte) error {
	copy(buf, f.data[off:])
	return nil
}

func TestSegmentPullPush(t *testing.T) {
	clock := cost.New()
	sg := NewSegment("s", pg, clock)
	want := []byte("hello segment")
	sg.Store().WriteAt(0, want)

	fc := &fakeCache{}
	if err := sg.PullIn(fc, 0, pg, gmi.ProtRead); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fc.filled[:len(want)], want) {
		t.Fatal("pullIn content wrong")
	}
	if sg.PullIns() != 1 {
		t.Fatal("pullIn not counted")
	}
	if clock.Count(cost.EvDiskRead) == 0 {
		t.Fatal("disk read not charged")
	}

	fc.data = make([]byte, pg)
	copy(fc.data, "written back")
	if err := sg.PushOut(fc, 0, pg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	sg.Store().ReadAt(0, got)
	if string(got) != "written back" {
		t.Fatal("pushOut did not reach store")
	}
	if sg.PushOuts() != 1 {
		t.Fatal("pushOut not counted")
	}
}

func TestSwapAllocatorDistinctSegments(t *testing.T) {
	a := NewSwapAllocator(pg, cost.New())
	s1, err := a.SegmentCreate(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.SegmentCreate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("swap segments shared")
	}
	// Distinct stores: writes do not alias.
	s1.(*Segment).Store().WriteAt(0, []byte{1})
	buf := make([]byte, 1)
	s2.(*Segment).Store().ReadAt(0, buf)
	if buf[0] != 0 {
		t.Fatal("stores alias")
	}
	if a.Created() != 2 {
		t.Fatalf("created = %d", a.Created())
	}
}

func TestSegmentRetriesTransientFaults(t *testing.T) {
	// A faulty backend with Prob=1 but a consecutive cap below the retry
	// budget: every upcall sees injected transient failures yet succeeds.
	clock := cost.New()
	f := store.NewFaulty(store.NewMem(pg), store.FaultConfig{Seed: 11, Prob: 1, MaxConsecutive: 3})
	sg := NewSegmentOn("flaky-dev", f, clock)
	if err := sg.Store().WriteAt(0, []byte("survives the weather")); err != nil {
		t.Fatalf("preload: %v", err)
	}

	fc := &fakeCache{}
	if err := sg.PullIn(fc, 0, pg, gmi.ProtRead); err != nil {
		t.Fatalf("PullIn through transient faults: %v", err)
	}
	if string(fc.filled[:20]) != "survives the weather" {
		t.Fatal("pullIn content wrong after retries")
	}
	fc.data = make([]byte, pg)
	if err := sg.PushOut(fc, 0, pg); err != nil {
		t.Fatalf("PushOut through transient faults: %v", err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatalf("Sync through transient faults: %v", err)
	}
	if sg.Retries() == 0 {
		t.Fatal("no retries recorded under Prob=1 injection")
	}
	if f.Injected() == 0 {
		t.Fatal("faulty wrapper injected nothing")
	}
}

// TestPullInRetriesEachPage: the synchronous pullIn retries each page of
// a multi-page read on its own, keeping the pages already read. Every
// device operation fails twice before it succeeds, so a read retried as
// a whole would restart at its first page and never get past the second.
func TestPullInRetriesEachPage(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		f := store.NewFaulty(store.NewMem(pg), store.FaultConfig{Seed: 5, Prob: 1, MaxConsecutive: 2})
		sg := NewSegmentOn("flaky-dev", f, cost.New())
		pol := store.DefaultPolicy()
		pol.Base, pol.Max = time.Microsecond, time.Microsecond
		sg.Store().Engine().SetRetry(pol)
		want := make([]byte, n*pg)
		for i := range want {
			want[i] = byte(i*7 + n)
		}
		if err := sg.Store().WriteAt(0, want); err != nil {
			t.Fatalf("%d pages: preload: %v", n, err)
		}
		if err := sg.Store().Sync(); err != nil {
			t.Fatalf("%d pages: Sync: %v", n, err)
		}
		before := sg.Retries()

		fc := &fakeCache{}
		if err := sg.PullIn(fc, 0, int64(n*pg), gmi.ProtRead); err != nil {
			t.Fatalf("%d pages: PullIn through transient faults: %v", n, err)
		}
		if !bytes.Equal(fc.filled, want) {
			t.Fatalf("%d pages: pullIn filled wrong bytes", n)
		}
		// Two retries per page: one for each injected failure.
		if r := sg.Retries() - before; r != uint64(2*n) {
			t.Fatalf("%d pages: %d retries, want %d", n, r, 2*n)
		}
		if err := sg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// deadBackend permanently fails every read.
type deadBackend struct{ store.Backend }

var errDead = errors.New("drive is a brick")

func (d *deadBackend) ReadAt(off int64, buf []byte) error { return errDead }

func TestSegmentPermanentFailureIsErrIO(t *testing.T) {
	sg := NewSegmentOn("dead-dev", &deadBackend{store.NewMem(pg)}, cost.New())
	err := sg.PullIn(&fakeCache{}, 0, pg, gmi.ProtRead)
	if !errors.Is(err, gmi.ErrIO) {
		t.Fatalf("PullIn on dead device = %v, want gmi.ErrIO", err)
	}
	if !errors.Is(err, errDead) {
		t.Fatalf("PullIn error %v does not wrap the device error", err)
	}
	if sg.Retries() != 0 {
		t.Fatalf("Retries = %d for a permanent error, want 0", sg.Retries())
	}
}

func TestSegmentReleaseFreesPages(t *testing.T) {
	sg := NewSegment("temp", pg, cost.New())
	if err := sg.Store().WriteAt(0, make([]byte, 4*pg)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if got := sg.Store().Pages(); got != 4 {
		t.Fatalf("Pages = %d before release, want 4", got)
	}
	if err := sg.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := sg.Store().Pages(); got != 0 {
		t.Fatalf("Pages = %d after release, want 0", got)
	}
}

func TestSwapAllocatorPagesAndFactory(t *testing.T) {
	var made []string
	a := NewSwapAllocatorOn(pg, cost.New(), func(name string) (store.Backend, error) {
		made = append(made, name)
		return store.NewMem(pg), nil
	})
	s1, err := a.SegmentCreate(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.SegmentCreate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(made) != 2 || made[0] != "swap-1" || made[1] != "swap-2" {
		t.Fatalf("factory calls = %v", made)
	}
	s1.(*Segment).Store().WriteAt(0, make([]byte, 2*pg))
	s2.(*Segment).Store().WriteAt(0, make([]byte, pg))
	if a.Pages() != 3 {
		t.Fatalf("allocator Pages = %d, want 3", a.Pages())
	}
	if err := s1.(*Segment).Release(); err != nil {
		t.Fatal(err)
	}
	if a.Pages() != 1 {
		t.Fatalf("allocator Pages = %d after release, want 1", a.Pages())
	}
}

// TestSwapAllocatorForgetsReleasedSegments: a segment its cache released
// leaves the allocator's set, so a long-lived allocator holds only the
// live ones, and Close still closes those.
func TestSwapAllocatorForgetsReleasedSegments(t *testing.T) {
	a := NewSwapAllocator(pg, cost.New())
	for i := 0; i < 16; i++ {
		sg, err := a.SegmentCreate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sg.(*Segment).Store().WriteAt(0, make([]byte, pg)); err != nil {
			t.Fatal(err)
		}
		if err := sg.(*Segment).Release(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.live()); n != 0 {
		t.Fatalf("allocator holds %d segments after releasing all 16, want 0", n)
	}
	var live []*Segment
	for i := 0; i < 2; i++ {
		sg, err := a.SegmentCreate(nil)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, sg.(*Segment))
	}
	if n := len(a.live()); n != 2 {
		t.Fatalf("allocator holds %d segments, want the 2 live ones", n)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sg := range live {
		if err := sg.Store().WriteAt(0, make([]byte, pg)); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("write after allocator Close = %v, want store.ErrClosed", err)
		}
	}
	if got := a.Created(); got != 18 {
		t.Fatalf("Created = %d, want 18", got)
	}
}

func TestSwapAllocatorFactoryErrorIsErrIO(t *testing.T) {
	boom := errors.New("no space on swap device")
	a := NewSwapAllocatorOn(pg, cost.New(), func(string) (store.Backend, error) { return nil, boom })
	_, err := a.SegmentCreate(nil)
	if !errors.Is(err, gmi.ErrIO) || !errors.Is(err, boom) {
		t.Fatalf("SegmentCreate = %v, want gmi.ErrIO wrapping the factory error", err)
	}
}

func TestFlakySegmentGetWriteAccess(t *testing.T) {
	sg := NewSegment("s", pg, cost.New())
	fl := &FlakySegment{Segment: sg}
	fl.FailGetWrites.Store(1)
	if err := fl.GetWriteAccess(nil, 0, pg); !errors.Is(err, ErrInjected) {
		t.Fatalf("first upgrade = %v, want ErrInjected", err)
	}
	if err := fl.GetWriteAccess(nil, 0, pg); err != nil {
		t.Fatalf("second upgrade should succeed: %v", err)
	}
	if sg.Upgrades() != 1 {
		t.Fatalf("Upgrades = %d, want 1 (injected failure must not reach the segment)", sg.Upgrades())
	}
}

func TestFlakyAllocator(t *testing.T) {
	fa := &FlakyAllocator{SegmentAllocator: NewSwapAllocator(pg, cost.New())}
	fa.FailCreates.Store(1)
	if _, err := fa.SegmentCreate(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("first create = %v, want ErrInjected", err)
	}
	if _, err := fa.SegmentCreate(nil); err != nil {
		t.Fatalf("second create should succeed: %v", err)
	}
}

func TestFlakySegment(t *testing.T) {
	sg := NewSegment("s", pg, cost.New())
	fl := &FlakySegment{Segment: sg}
	fl.FailPullIns.Store(2)
	fc := &fakeCache{}
	for i := 0; i < 2; i++ {
		if err := fl.PullIn(fc, 0, pg, gmi.ProtRead); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: got %v", i, err)
		}
	}
	if err := fl.PullIn(fc, 0, pg, gmi.ProtRead); err != nil {
		t.Fatalf("third attempt should succeed: %v", err)
	}
}

// engineWorkers counts live worker goroutines of the engine whose
// address is addr (as printed by %p).
func engineWorkers(addr string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("store.(*Engine).worker("+addr))
}

// TestDroppedSegmentStopsWorkers: a segment its owner drops without
// closing (the IPC transit segment has no owner that closes it) does not
// keep its engine's workers parked forever; once the segment is garbage
// they exit.
func TestDroppedSegmentStopsWorkers(t *testing.T) {
	var addr string // the engine's address only: no reference to it
	func() {
		sg := NewSegment("dropped", pg, cost.New())
		if err := sg.Store().WriteAt(0, make([]byte, pg)); err != nil {
			t.Fatal(err)
		}
		if err := sg.Store().Sync(); err != nil {
			t.Fatal(err)
		}
		addr = fmt.Sprintf("%p", sg.Store().Engine())
		if engineWorkers(addr) == 0 {
			t.Fatal("the segment's engine started no worker")
		}
		runtime.KeepAlive(sg)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for engineWorkers(addr) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d engine workers still parked after their segment was dropped", engineWorkers(addr))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitPullDemandReadsInline: a demand request is read on the
// submitting goroutine and completed before SubmitPull returns, with no
// engine worker involved, and a transient device error on that read is
// retried under the engine's policy.
func TestSubmitPullDemandReadsInline(t *testing.T) {
	f := store.NewFaulty(store.NewMem(pg), store.FaultConfig{Seed: 5, Prob: 1, MaxConsecutive: 2})
	sg := NewSegmentOn("flaky-dev", f, cost.New())
	defer sg.Close()
	pol := store.DefaultPolicy()
	pol.Base, pol.Max = time.Microsecond, time.Microsecond
	sg.Store().Engine().SetRetry(pol)
	want := bytes.Repeat([]byte("inline"), pg/6+1)[:pg]
	if err := sg.Store().WriteAt(0, want); err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := sg.Store().Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	before := sg.Store().Engine().StatsSnapshot()

	var fillErr error
	r := gmi.NewPageRequest(&fakeCache{}, 0, pg, gmi.ProtRead, func(data []byte, granted gmi.Prot, err error) { fillErr = err })
	r.Dst = [][]byte{make([]byte, pg)}
	sg.SubmitPull(r)
	if !r.Done() {
		t.Fatal("demand request not complete when SubmitPull returned")
	}
	if fillErr != nil {
		t.Fatalf("demand fill through transient faults: %v", fillErr)
	}
	if !bytes.Equal(r.Dst[0], want) {
		t.Fatal("demand fill read wrong bytes")
	}
	d := sg.Store().Engine().StatsSnapshot().Delta(before)
	if d.AsyncReads != 0 || d.Retries == 0 {
		t.Fatalf("AsyncReads=%d Retries=%d, want 0 and some", d.AsyncReads, d.Retries)
	}
}
