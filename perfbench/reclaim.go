package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// reclaim: two workers, each with a private anonymous region; together
// the regions are twice the physical frames. Accesses follow a Zipf hot
// set plus uniform noise, with a sequential scan burst every so often
// (the shape of bench.PressureAblation). Half the accesses write a
// generation stamp, half read one back against the worker's oracle. The
// pageout daemon runs throughout, swap is a SwapAllocator on page files,
// and at the end each worker exits (Context.Destroy, Cache.Destroy) with
// the daemon still running, as a kernel would.
const (
	rcWorkers    = 2
	rcFrames     = 512
	rcPages      = rcFrames // per worker: together 2x the frames
	rcAccesses   = 12000    // Zipf/noise accesses per worker per round
	rcNoiseOneIn = 5        // one access in five is uniform
	rcScanEvery  = 256      // a scan burst after every this many accesses
	rcScanBurst  = 64       // sequential pages per burst
	rcStamp      = 16       // bytes of a generation stamp
)

type reclaimWorker struct {
	id   int
	sp   *space
	gens []uint64 // oracle: generation last written to each page (0: never)
	rng  *rand.Rand

	attempts, failed int
	lat              []time.Duration
}

func reclaimRound(seed int64, pr *probes) roundResult {
	var rr roundResult
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	clock := cost.New()
	const ps = 8192
	rig, err := newStoreRig(ps, clock, pr)
	if err != nil {
		panic(fmt.Sprintf("reclaim: set-up: %v", err))
	}
	p, tracer := newPVM(rcFrames, clock, rig, pr)
	stopDaemon := p.StartPageoutDaemon(rcFrames/8, rcFrames/4, time.Millisecond)
	ws := make([]*reclaimWorker, rcWorkers)
	for i := range ws {
		sp, err := newSpace(p, nil, rcPages*ps)
		if err != nil {
			panic(fmt.Sprintf("reclaim: set-up worker %d: %v", i, err))
		}
		ws[i] = &reclaimWorker{id: i, sp: sp, gens: make([]uint64, rcPages), rng: rand.New(rand.NewSource(rng.Int63()))}
	}
	rr.setup = time.Since(t0)

	m := startMeter(p, clock, pr, tracer)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *reclaimWorker) {
			defer wg.Done()
			w.run(p, pr)
		}(w)
	}
	wg.Wait()
	for _, w := range ws {
		rr.attempts += w.attempts
		rr.failed += w.failed
		rr.lat = append(rr.lat, w.lat...)
	}
	m.stop(&rr, rr.attempts)
	// Workers exit with the daemon still running.
	for _, w := range ws {
		rr.attempts++
		if err := w.sp.destroy(); err != nil {
			fmt.Printf("reclaim: worker %d exit: %v\n", w.id, err)
			rr.failed++
			rr.crashed = true
		}
	}
	stopDaemon()
	if err := rig.close(); err != nil {
		fmt.Printf("reclaim: store teardown: %v\n", err)
	}
	m.finish()
	return rr
}

func (w *reclaimWorker) run(p *core.PVM, pr *probes) {
	const ps = 8192
	zipf := rand.NewZipf(w.rng, 1.2, 8, rcPages-1)
	stamp := make([]byte, rcStamp)
	want := make([]byte, rcStamp)
	w.lat = make([]time.Duration, 0, rcAccesses*(rcScanEvery+rcScanBurst)/rcScanEvery)
	access := func(pg int, write bool) {
		w.attempts++
		if pr != nil && w.attempts%64 == 0 {
			pr.sampleFree(p.Memory().FreeFrames())
		}
		va := spaceBase + gmi.VA(int64(pg)*ps)
		t := time.Now()
		var err error
		if write {
			w.gens[pg]++
			w.stampOf(pg, stamp)
			err = w.sp.ctx.Write(va, stamp)
		} else {
			err = w.sp.ctx.Read(va, stamp)
			if err == nil {
				w.stampOf(pg, want)
				if string(stamp) != string(want) {
					err = fmt.Errorf("page %d generation %d: %w", pg, w.gens[pg], errMismatch)
				}
			}
		}
		if err == nil {
			w.lat = append(w.lat, time.Since(t))
			return
		}
		w.failed++
		fmt.Printf("reclaim: worker %d: %v\n", w.id, err)
		w.reset(p)
	}
	scan := 0
	for a := 0; a < rcAccesses; a++ {
		if a > 0 && a%rcScanEvery == 0 {
			for i := 0; i < rcScanBurst; i++ {
				access(scan, false)
				scan = (scan + 1) % rcPages
			}
		}
		pg := int(zipf.Uint64())
		if w.rng.Intn(rcNoiseOneIn) == 0 {
			pg = w.rng.Intn(rcPages)
		}
		access(pg, w.rng.Intn(2) == 0)
	}
}

// stampOf renders the stamp page pg should hold: zeroes if never
// written, else worker, page and generation.
func (w *reclaimWorker) stampOf(pg int, b []byte) {
	if w.gens[pg] == 0 {
		clear(b)
		return
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(w.id)+1)
	binary.LittleEndian.PutUint32(b[4:], uint32(pg))
	binary.LittleEndian.PutUint64(b[8:], w.gens[pg])
}

// reset replaces the worker's context, cache and oracle after a failure.
func (w *reclaimWorker) reset(p *core.PVM) {
	if err := w.sp.destroy(); err != nil {
		fmt.Printf("reclaim: worker %d reset: %v\n", w.id, err)
	}
	sp, err := newSpace(p, nil, rcPages*8192)
	if err != nil {
		panic(fmt.Sprintf("reclaim: worker %d reset: %v", w.id, err))
	}
	w.sp = sp
	clear(w.gens)
}
