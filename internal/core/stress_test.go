package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// Concurrency stress: the paper's "host kernel provides a simple
// synchronization interface" claim means the PVM must be safe under
// concurrent faults, copies and page-outs. Each worker owns a private
// region (so contents stay deterministic per worker) while all of them
// contend on one PVM, one frame pool and the global LRU.

func TestConcurrentWorkers(t *testing.T) {
	p, _ := newTestPVM(t, 96) // tight enough to force eviction contention
	const (
		workers = 8
		pages   = 8
		rounds  = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ctx, err := p.ContextCreate()
			if err != nil {
				errs <- err
				return
			}
			cbase := gmi.VA(0x100_0000)
			c := p.TempCacheCreate()
			if _, err := ctx.RegionCreate(cbase, pages*pg, gmi.ProtRW, c, 0); err != nil {
				errs <- err
				return
			}
			model := make([]byte, pages*pg)
			for r := 0; r < rounds; r++ {
				off := rng.Int63n(pages*pg - 256)
				data := make([]byte, rng.Intn(255)+1)
				rng.Read(data)
				if err := ctx.Write(cbase+gmi.VA(off), data); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				copy(model[off:], data)
				// Fork-style churn: copy the whole cache, read through
				// the copy, drop it.
				if r%10 == 5 {
					cp := p.TempCacheCreate()
					if err := c.Copy(cp, 0, 0, pages*pg); err != nil {
						errs <- fmt.Errorf("worker %d copy: %w", w, err)
						return
					}
					buf := make([]byte, 64)
					if err := cp.ReadAt(0, buf); err != nil {
						errs <- fmt.Errorf("worker %d copy read: %w", w, err)
						return
					}
					if !bytes.Equal(buf, model[:64]) {
						errs <- fmt.Errorf("worker %d copy content mismatch", w)
						return
					}
					if err := cp.Destroy(); err != nil {
						errs <- fmt.Errorf("worker %d copy destroy: %w", w, err)
						return
					}
				}
				voff := rng.Int63n(pages*pg - 256)
				got := make([]byte, 256)
				if err := ctx.Read(cbase+gmi.VA(voff), got); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, model[voff:voff+256]) {
					errs <- fmt.Errorf("worker %d content diverged at %#x round %d", w, voff, r)
					return
				}
			}
			if err := ctx.Destroy(); err != nil {
				errs <- err
				return
			}
			if err := c.Destroy(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check(t, p)
	if p.Memory().FreeFrames() != p.Memory().TotalFrames() {
		t.Fatalf("frames leaked: %d/%d free", p.Memory().FreeFrames(), p.Memory().TotalFrames())
	}
}

// TestConcurrentSharedReaders hammers one source cache with concurrent
// deferred copies and reads while a writer mutates it — every reader must
// see either the pre-copy snapshot it captured, never a torn mix from a
// different epoch at page granularity.
func TestConcurrentSharedReaders(t *testing.T) {
	p, _ := newTestPVM(t, 256)
	ctx, _ := p.ContextCreate()
	src := p.TempCacheCreate()
	const pages = 4
	mustRegion(t, ctx, base, pages*pg, gmi.ProtRW, src, 0)

	// Each epoch writes a uniform tag across all pages, under a lock that
	// also snapshots the tag for copiers — so each copy corresponds to
	// exactly one tag.
	var mu sync.Mutex
	writeEpoch := func(tag byte) {
		mu.Lock()
		defer mu.Unlock()
		buf := bytes.Repeat([]byte{tag}, pages*pg)
		if err := ctx.Write(base, buf); err != nil {
			t.Error(err)
		}
	}
	snapshotCopy := func() (gmi.Cache, byte) {
		mu.Lock()
		defer mu.Unlock()
		one := make([]byte, 1)
		if err := src.ReadAt(0, one); err != nil {
			t.Error(err)
		}
		cp := p.TempCacheCreate()
		if err := src.Copy(cp, 0, 0, pages*pg); err != nil {
			t.Error(err)
		}
		return cp, one[0]
	}

	writeEpoch(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cp, tag := snapshotCopy()
				got := make([]byte, pages*pg)
				if err := cp.ReadAt(0, got); err != nil {
					t.Error(err)
					return
				}
				for j, b := range got {
					if b != tag {
						t.Errorf("reader %d: byte %d = %d, want %d (torn snapshot)", w, j, b, tag)
						return
					}
				}
				if err := cp.Destroy(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tag := byte(2); tag < 30; tag++ {
			writeEpoch(tag)
		}
	}()
	wg.Wait()
	check(t, p)
}

// TestConcurrentOracleStress is the sharded-fault-path torture test: every
// worker keeps a byte-level oracle of its private region while faulting,
// copying, flushing and syncing concurrently — and while both the pageout
// daemon and a forced PageOut goroutine reclaim frames out from under
// them. Run with -race. Invariants (DESIGN.md section 6) are checked only
// at quiescence: the frame-accounting invariant is allowed to be
// transiently unobservable mid-fault, never at rest.
// The oracle doubles as the stale-bytes check: a recycled frame carrying
// a previous owner's bytes shows up as content divergence.
//
// The extent variant runs the same fight with clustered async pulls and
// fault-around batch-mapping each cluster's resident neighbours. Every
// write after a deferred copy, every flush and every reclaim must reach
// the neighbour translations fault-around installed, not only the
// faulted page's, so the oracle doubles as the fault-around coherence
// check: a stale neighbour translation diverges the content.
// The pmmu and i386 variants run the baseline fight on the other two MMU
// ports. pmmu's hash table is shared by every space, so concurrent faults
// in distinct contexts race on it unless the port locks it (mmu.Space's
// concurrency contract).
func TestConcurrentOracleStress(t *testing.T) {
	t.Run("baseline", func(t *testing.T) { runOracleStress(t) })
	t.Run("extent", func(t *testing.T) { runOracleStress(t, withExtent) })
	t.Run("2q", func(t *testing.T) {
		runOracleStress(t, func(o *Options) { o.Policy = "2q" })
	})
	for _, hw := range []string{"pmmu", "i386"} {
		t.Run(hw, func(t *testing.T) {
			runOracleStress(t, func(o *Options) { o.MMU = hw })
		})
	}
}

func runOracleStress(t *testing.T, opts ...func(*Options)) {
	p, _ := newTestPVM(t, 96, opts...)

	const (
		workers = 6
		pages   = 8
		rounds  = 80
	)
	// Workers set up their regions before any reclaimer runs. With
	// fault-around enabled, worker 0 also reads its whole aligned cluster
	// then: nothing can take a frame from under that fill, so the extent
	// variant maps neighbours at least once by construction, not by
	// timing.
	var setup sync.WaitGroup
	setup.Add(workers)
	start := make(chan struct{})

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ready := sync.OnceFunc(setup.Done)
			defer ready()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			ctx, err := p.ContextCreate()
			if err != nil {
				errs <- err
				return
			}
			cbase := gmi.VA(0x200_0000) // cluster-aligned: a fill covers whole clusters
			var c gmi.Cache
			if p.faultAround > 1 {
				// Segment-backed caches take the async submit/complete
				// path, whose clustered fills leave whole clusters
				// resident for fault-around to map.
				c = p.CacheCreate(seg.NewSegment(fmt.Sprintf("w%d", w), pg, p.Clock()))
			} else {
				c = p.TempCacheCreate()
			}
			if _, err := ctx.RegionCreate(cbase, pages*pg, gmi.ProtRW, c, 0); err != nil {
				errs <- err
				return
			}
			model := make([]byte, pages*pg)
			if w == 0 && p.faultAround > 1 {
				full := make([]byte, pages*pg)
				if err := ctx.Read(cbase, full); err != nil {
					errs <- fmt.Errorf("worker %d cluster read: %w", w, err)
					return
				}
				if !bytes.Equal(full, model) {
					errs <- fmt.Errorf("worker %d cluster content diverged", w)
					return
				}
			}
			ready()
			<-start
			for r := 0; r < rounds; r++ {
				off := rng.Int63n(pages*pg - 512)
				data := make([]byte, rng.Intn(511)+1)
				rng.Read(data)
				if err := ctx.Write(cbase+gmi.VA(off), data); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				copy(model[off:], data)
				switch r % 16 {
				case 3: // deferred copy, read through it, drop it
					cp := p.TempCacheCreate()
					if err := c.Copy(cp, 0, 0, pages*pg); err != nil {
						errs <- fmt.Errorf("worker %d copy: %w", w, err)
						return
					}
					buf := make([]byte, 128)
					coff := rng.Int63n(pages*pg - 128)
					if err := cp.ReadAt(coff, buf); err != nil {
						errs <- fmt.Errorf("worker %d copy read: %w", w, err)
						return
					}
					if !bytes.Equal(buf, model[coff:coff+128]) {
						errs <- fmt.Errorf("worker %d copy content mismatch at %#x", w, coff)
						return
					}
					if err := cp.Destroy(); err != nil {
						errs <- fmt.Errorf("worker %d copy destroy: %w", w, err)
						return
					}
				case 7: // write back and release frames; next read re-pulls
					if err := c.Flush(0, pages*pg); err != nil {
						errs <- fmt.Errorf("worker %d flush: %w", w, err)
						return
					}
					// Re-pull from the first page, so a read-ahead cluster
					// covers the whole aligned cluster for fault-around
					// to map.
					head := make([]byte, 64)
					if err := ctx.Read(cbase, head); err != nil {
						errs <- fmt.Errorf("worker %d head read: %w", w, err)
						return
					}
					if !bytes.Equal(head, model[:64]) {
						errs <- fmt.Errorf("worker %d head content diverged round %d", w, r)
						return
					}
				case 11: // write back, keep cached
					if err := c.Sync(0, pages*pg); err != nil {
						errs <- fmt.Errorf("worker %d sync: %w", w, err)
						return
					}
				}
				voff := rng.Int63n(pages*pg - 256)
				got := make([]byte, 256)
				if err := ctx.Read(cbase+gmi.VA(voff), got); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, model[voff:voff+256]) {
					errs <- fmt.Errorf("worker %d content diverged at %#x round %d", w, voff, r)
					return
				}
			}
			// Final full-region verify against the oracle, then teardown.
			full := make([]byte, pages*pg)
			if err := ctx.Read(cbase, full); err != nil {
				errs <- fmt.Errorf("worker %d final read: %w", w, err)
				return
			}
			if !bytes.Equal(full, model) {
				errs <- fmt.Errorf("worker %d final content diverged", w)
				return
			}
			if err := ctx.Destroy(); err != nil {
				errs <- err
				return
			}
			if err := c.Destroy(); err != nil {
				errs <- err
			}
		}(w)
	}
	setup.Wait()
	mappedAtSetup := p.Stats().FaultAroundMapped
	stopDaemon := p.StartPageoutDaemon(16, 32, 500*time.Microsecond)
	defer stopDaemon()
	done := make(chan struct{})
	var reclaimer sync.WaitGroup
	reclaimer.Add(1)
	go func() {
		defer reclaimer.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.PageOut(4)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	close(start)

	wg.Wait()
	close(done)
	reclaimer.Wait()
	stopDaemon()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check(t, p)
	if p.Memory().FreeFrames() != p.Memory().TotalFrames() {
		t.Fatalf("frames leaked: %d/%d free", p.Memory().FreeFrames(), p.Memory().TotalFrames())
	}
	if p.faultAround > 1 {
		// Fault-around must have mapped neighbours, first on worker 0's
		// cluster read before any reclaimer ran, or the oracle never
		// checked a batch-mapped translation.
		if mappedAtSetup == 0 {
			t.Fatal("the cluster read before reclaim started mapped no neighbours")
		}
		if st := p.Stats(); st.FaultAroundMapped == 0 {
			t.Fatal("extent stress never mapped a neighbour by fault-around")
		}
	}
}

// TestDemandZeroPoolStaleBytes recycles every frame of the pool through
// dirty caches in a tight loop: each round scribbles over a whole region,
// tears it down (returning dirty frames), then demand-zero faults a fresh
// region and requires every byte to read zero. It is the end-to-end
// version of the phys stale-bytes regression.
func TestDemandZeroPoolStaleBytes(t *testing.T) {
	p, _ := newTestPVM(t, 32)

	const pages = 8
	junk := bytes.Repeat([]byte{0xAB}, pages*pg)
	zero := make([]byte, pages*pg)
	got := make([]byte, pages*pg)
	ctx, err := p.ContextCreate()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		dirty := p.TempCacheCreate()
		r := mustRegion(t, ctx, base, pages*pg, gmi.ProtRW, dirty, 0)
		mustWrite(t, ctx, base, junk)
		if err := r.Destroy(); err != nil {
			t.Fatal(err)
		}
		if err := dirty.Destroy(); err != nil {
			t.Fatal(err)
		}

		fresh := p.TempCacheCreate()
		r = mustRegion(t, ctx, base, pages*pg, gmi.ProtRW, fresh, 0)
		if err := ctx.Read(base, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("round %d: demand-zero fault returned stale bytes", round)
		}
		if err := r.Destroy(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.ZeroFills < 50*pages {
		t.Fatalf("%d zero fills, want at least %d: the demand-zero path was not exercised", st.ZeroFills, 50*pages)
	}
	check(t, p)
}
