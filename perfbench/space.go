package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// fill writes the page pattern named by key: every 8-byte word differs,
// so a page served from the wrong offset, the wrong cache or a stale
// frame does not compare equal.
func fill(b []byte, key uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], key^uint64(i)*0x9E3779B97F4A7C15)
	}
}

const spaceBase = gmi.VA(0x100_0000)

// space is one worker's address space: a context with one region over
// one cache.
type space struct {
	ctx   gmi.Context
	cache gmi.Cache
}

// newSpace maps a fresh cache over seg (a temporary cache when seg is
// nil) into a fresh context.
func newSpace(p *core.PVM, sg gmi.Segment, size int64) (*space, error) {
	ctx, err := p.ContextCreate()
	if err != nil {
		return nil, err
	}
	var c gmi.Cache
	if sg == nil {
		c = p.TempCacheCreate()
	} else {
		c = p.CacheCreate(sg)
	}
	if _, err := ctx.RegionCreate(spaceBase, size, gmi.ProtRW, c, 0); err != nil {
		_ = c.Destroy()
		_ = ctx.Destroy()
		return nil, err
	}
	return &space{ctx: ctx, cache: c}, nil
}

// destroy exits the worker the way a kernel tears a process down:
// context first, then its cache. A panic inside the program is reported
// as an error, so the round can count it and go on.
func (s *space) destroy() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("teardown panicked: %v at %s", r, programFrames(debug.Stack()))
		}
	}()
	return errors.Join(s.ctx.Destroy(), s.cache.Destroy())
}

// programFrames names the innermost frames of the program's own packages
// in a goroutine stack dump, innermost first.
func programFrames(stack []byte) string {
	var frames []string
	for _, line := range strings.Split(string(stack), "\n") {
		if strings.HasPrefix(line, "chorusvm/internal/") && len(frames) < 5 {
			frames = append(frames, strings.TrimPrefix(line[:strings.LastIndexByte(line, '(')], "chorusvm/internal/"))
		}
	}
	return strings.Join(frames, " <- ")
}

// storeRig is the backing-store side of a round: a temporary directory
// of page files, the file-backed swap allocator, and every segment
// created on it, closed together at teardown.
type storeRig struct {
	dir   string
	ps    int
	clock *cost.Clock
	pr    *probes
	swap  *seg.SwapAllocator

	mu   sync.Mutex
	segs []*seg.Segment
}

func newStoreRig(ps int, clock *cost.Clock, pr *probes) (*storeRig, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	r := &storeRig{dir: dir, ps: ps, clock: clock, pr: pr}
	r.swap = seg.NewSwapAllocatorOn(ps, clock, r.backend)
	return r, nil
}

// backend opens a page file, decorated in the traced run.
func (r *storeRig) backend(name string) (store.Backend, error) {
	f, err := store.NewFile(filepath.Join(r.dir, name), r.ps)
	if err != nil {
		return nil, err
	}
	if r.pr != nil {
		return timedBackend{f, r.pr}, nil
	}
	return f, nil
}

// segment opens a segment over a fresh page file.
func (r *storeRig) segment(name string) (*seg.Segment, error) {
	b, err := r.backend(name)
	if err != nil {
		return nil, err
	}
	sg := seg.NewSegmentOn(name, b, r.clock)
	r.track(sg)
	return sg, nil
}

func (r *storeRig) track(sg *seg.Segment) {
	r.mu.Lock()
	r.segs = append(r.segs, sg)
	r.mu.Unlock()
	if r.pr != nil {
		r.pr.addSegment(sg)
	}
}

// SegmentCreate implements gmi.SegmentAllocator: the swap allocator's
// segments on page files, remembered so teardown can close them.
func (r *storeRig) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	s, err := r.swap.SegmentCreate(c)
	if sg, ok := s.(*seg.Segment); ok {
		r.track(sg)
	}
	return s, err
}

// close closes every segment and removes the directory.
func (r *storeRig) close() error {
	r.mu.Lock()
	segs := r.segs
	r.segs = nil
	r.mu.Unlock()
	var first error
	for _, sg := range segs {
		if err := sg.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(r.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// newPVM builds a PVM with default options apart from Frames and the
// swap allocator; the traced run adds a tracer.
func newPVM(frames int, clock *cost.Clock, alloc gmi.SegmentAllocator, pr *probes) (*core.PVM, *obs.Tracer) {
	var tracer *obs.Tracer
	if pr != nil {
		tracer = obs.New(obs.Options{})
		alloc = timedAllocator{alloc, pr}
	}
	return core.New(core.Options{Frames: frames, Clock: clock, SegAlloc: alloc, Tracer: tracer}), tracer
}
