package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
)

// fault-in: two workers, each with its own segment on the file store,
// preloaded with a per-page pattern and synced before timing. A pass
// reads every page once, in sequential or random order (the seed picks
// per pass), and now and then re-reads a page the pass already brought
// in; Cache.Invalidate between passes drops the clean pages, so every
// pass pages in again through the async pager. Frames hold the whole
// working set: nothing is evicted, copied or written back.
const (
	fiWorkers     = 2
	fiPages       = 512 // pages per worker segment
	fiPasses      = 6   // passes per round
	fiFrames      = fiWorkers*fiPages + 128
	fiRereadOneIn = 8
)

type faultInWorker struct {
	id     int
	seg    gmi.Segment // as bound to the cache: decorated in the traced run
	sp     *space
	oracle [][]byte // expected content of every page
	rng    *rand.Rand

	attempts, failed, accesses int
	lat                        []time.Duration
}

func faultInRound(seed int64, pr *probes) roundResult {
	var rr roundResult
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	clock := cost.New()
	const ps = 8192
	rig, err := newStoreRig(ps, clock, pr)
	if err != nil {
		panic(fmt.Sprintf("fault-in: set-up: %v", err))
	}
	p, tracer := newPVM(fiFrames, clock, rig, pr)
	ws := make([]*faultInWorker, fiWorkers)
	for i := range ws {
		w, err := newFaultInWorker(p, rig, i, rng.Int63(), pr)
		if err != nil {
			panic(fmt.Sprintf("fault-in: set-up worker %d: %v", i, err))
		}
		ws[i] = w
	}
	rr.setup = time.Since(t0)

	m := startMeter(p, clock, pr, tracer)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *faultInWorker) {
			defer wg.Done()
			w.run(p, pr)
		}(w)
	}
	wg.Wait()
	accesses := 0
	for _, w := range ws {
		rr.attempts += w.attempts
		rr.failed += w.failed
		rr.lat = append(rr.lat, w.lat...)
		accesses += w.accesses
	}
	m.stop(&rr, accesses)
	for _, w := range ws {
		rr.attempts++
		if err := w.sp.destroy(); err != nil {
			fmt.Printf("fault-in: worker %d exit: %v\n", w.id, err)
			rr.failed++
			rr.crashed = true
		}
	}
	if err := rig.close(); err != nil {
		fmt.Printf("fault-in: store teardown: %v\n", err)
	}
	m.finish()
	return rr
}

// newFaultInWorker creates the worker's segment, preloads and syncs it,
// and maps it.
func newFaultInWorker(p *core.PVM, rig *storeRig, id int, seed int64, pr *probes) (*faultInWorker, error) {
	const ps = 8192
	w := &faultInWorker{id: id, rng: rand.New(rand.NewSource(seed))}
	sg, err := rig.segment(fmt.Sprintf("data-%d", id))
	if err != nil {
		return nil, err
	}
	for pg := 0; pg < fiPages; pg++ {
		b := make([]byte, ps)
		fill(b, w.rng.Uint64())
		w.oracle = append(w.oracle, b)
		if err := sg.Store().WriteAt(int64(pg)*ps, b); err != nil {
			return nil, err
		}
	}
	if err := sg.Store().Sync(); err != nil {
		return nil, err
	}
	w.seg = gmi.Segment(sg)
	if pr != nil {
		w.seg = wrapSegment(sg, pr)
	}
	w.sp, err = newSpace(p, w.seg, fiPages*ps)
	return w, err
}

func (w *faultInWorker) run(p *core.PVM, pr *probes) {
	const ps = 8192
	buf := make([]byte, ps)
	w.lat = make([]time.Duration, 0, fiPasses*fiPages*(fiRereadOneIn+1)/fiRereadOneIn)
	read := func(pg int) {
		w.attempts++
		w.accesses++
		if pr != nil && w.accesses%64 == 0 {
			pr.sampleFree(p.Memory().FreeFrames())
		}
		t := time.Now()
		err := w.sp.ctx.Read(spaceBase+gmi.VA(int64(pg)*ps), buf)
		if err == nil && !bytes.Equal(buf, w.oracle[pg]) {
			err = fmt.Errorf("page %d: %w", pg, errMismatch)
		}
		if err == nil {
			w.lat = append(w.lat, time.Since(t))
			return
		}
		w.failed++
		fmt.Printf("fault-in: worker %d read: %v\n", w.id, err)
		w.reset(p)
	}
	for pass := 0; pass < fiPasses; pass++ {
		order := w.rng.Perm(fiPages)
		if w.rng.Intn(2) == 0 {
			for i := range order {
				order[i] = i
			}
		}
		for i, pg := range order {
			read(pg)
			if w.rng.Intn(fiRereadOneIn) == 0 {
				read(order[w.rng.Intn(i+1)])
			}
		}
		if err := w.sp.cache.Invalidate(0, fiPages*ps); err != nil {
			w.attempts++
			w.failed++
			fmt.Printf("fault-in: worker %d invalidate: %v\n", w.id, err)
			w.reset(p)
		}
	}
}

// reset replaces the worker's context and cache after a failure; the
// segment, and so the oracle, is unchanged.
func (w *faultInWorker) reset(p *core.PVM) {
	if err := w.sp.destroy(); err != nil {
		fmt.Printf("fault-in: worker %d reset: %v\n", w.id, err)
	}
	sp, err := newSpace(p, w.seg, fiPages*8192)
	if err != nil {
		panic(fmt.Sprintf("fault-in: worker %d reset: %v", w.id, err))
	}
	w.sp = sp
}
