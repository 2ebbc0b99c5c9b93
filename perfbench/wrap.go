package main

import (
	"errors"
	"time"

	"chorusvm/internal/gmi"
	"chorusvm/internal/store"
)

// The decorators below time the calls the PVM makes across the GMI upcall
// boundary and the calls the store engine makes into its backend. They
// change nothing the program does: every optional interface the wrapped
// value implements is forwarded, because core probes segments for
// gmi.Pager and gmi.UsageAdviser (and Release on unilaterally created
// segments), and a decorator that hid gmi.Pager would silently move every
// fill onto the synchronous PullIn path.

// timedSegment decorates a gmi.Segment that is not a gmi.Pager.
type timedSegment struct {
	inner gmi.Segment
	pr    *probes
}

// timedPager decorates a gmi.Pager.
type timedPager struct{ *timedSegment }

var (
	_ gmi.Segment      = (*timedSegment)(nil)
	_ gmi.UsageAdviser = (*timedSegment)(nil)
	_ gmi.Pager        = timedPager{}
)

// wrapSegment decorates s, keeping its gmi.Pager-ness.
func wrapSegment(s gmi.Segment, pr *probes) gmi.Segment {
	ts := &timedSegment{inner: s, pr: pr}
	if _, ok := s.(gmi.Pager); ok {
		return timedPager{ts}
	}
	return ts
}

func (s *timedSegment) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	defer s.pr.since(tSegPull, time.Now())
	return s.inner.PullIn(c, off, size, mode)
}

func (s *timedSegment) GetWriteAccess(c gmi.Cache, off, size int64) error {
	return s.inner.GetWriteAccess(c, off, size)
}

func (s *timedSegment) PushOut(c gmi.Cache, off, size int64) error {
	defer s.pr.since(tSegPush, time.Now())
	return s.inner.PushOut(c, off, size)
}

func (s *timedSegment) NoteEvict(off, size int64) {
	if ua, ok := s.inner.(gmi.UsageAdviser); ok {
		ua.NoteEvict(off, size)
	}
}

func (s *timedSegment) NoteIdle(off, size int64) {
	if ua, ok := s.inner.(gmi.UsageAdviser); ok {
		ua.NoteIdle(off, size)
	}
}

// Release forwards the teardown of a unilaterally created segment
// (core releases its swap pages when the owning cache dies).
func (s *timedSegment) Release() error {
	if r, ok := s.inner.(interface{ Release() error }); ok {
		return r.Release()
	}
	return nil
}

// SubmitPull times a fill from submission to Complete: the request is
// re-wrapped so its completion passes through the timer on its way back.
func (s timedPager) SubmitPull(r *gmi.PageRequest) {
	start := time.Now()
	s.inner.(gmi.Pager).SubmitPull(gmi.NewPageRequest(r.Cache, r.Off, r.Size, r.Mode,
		func(data []byte, granted gmi.Prot, err error) {
			s.pr.since(tSegPull, start)
			r.Complete(data, granted, err)
		}))
}

// timedAllocator decorates the gmi.SegmentAllocator: it counts
// segmentCreate upcalls and decorates the segments they return.
type timedAllocator struct {
	inner gmi.SegmentAllocator
	pr    *probes
}

func (a timedAllocator) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	s, err := a.inner.SegmentCreate(c)
	if err != nil {
		return nil, err
	}
	a.pr.count[cSegCreates].Add(1)
	return wrapSegment(s, a.pr), nil
}

// timedMM decorates a memory manager so that every segment bound to a
// cache is a decorated one (how the fork-exec workload reaches the
// nucleus mapper segments and the IPC transit segment).
type timedMM struct {
	gmi.MemoryManager
	pr *probes
}

func (m timedMM) CacheCreate(s gmi.Segment) gmi.Cache {
	return m.MemoryManager.CacheCreate(wrapSegment(s, m.pr))
}

// timedBackend decorates a store.Backend. The optional Discarder,
// PageLister and Adviser extensions are forwarded when the wrapped
// backend has them (store.Faulty's convention).
type timedBackend struct {
	inner store.Backend
	pr    *probes
}

var (
	_ store.Backend    = timedBackend{}
	_ store.Discarder  = timedBackend{}
	_ store.PageLister = timedBackend{}
	_ store.Adviser    = timedBackend{}
)

func (b timedBackend) PageSize() int { return b.inner.PageSize() }

func (b timedBackend) ReadAt(off int64, buf []byte) error {
	defer b.pr.since(tStoreRead, time.Now())
	b.pr.count[cBytesRead].Add(int64(len(buf)))
	return b.inner.ReadAt(off, buf)
}

func (b timedBackend) WriteAt(off int64, data []byte) error {
	defer b.pr.since(tStoreWrite, time.Now())
	b.pr.count[cBytesWritten].Add(int64(len(data)))
	ps := int64(b.inner.PageSize())
	b.pr.count[cWritePages].Add((int64(len(data)) + ps - 1) / ps)
	return b.inner.WriteAt(off, data)
}

func (b timedBackend) Truncate(size int64) error { return b.inner.Truncate(size) }

func (b timedBackend) Sync() error {
	defer b.pr.since(tStoreSync, time.Now())
	return b.inner.Sync()
}

func (b timedBackend) Pages() int   { return b.inner.Pages() }
func (b timedBackend) Close() error { return b.inner.Close() }

var errNoDiscard = errors.New("perfbench: backend cannot discard single pages")

func (b timedBackend) DiscardPage(off int64) error {
	if d, ok := b.inner.(store.Discarder); ok {
		return d.DiscardPage(off)
	}
	return errNoDiscard
}

func (b timedBackend) PageOffsets() []int64 {
	if l, ok := b.inner.(store.PageLister); ok {
		return l.PageOffsets()
	}
	return nil
}

func (b timedBackend) Advise(off, size int64, a store.Advice) {
	if ad, ok := b.inner.(store.Adviser); ok {
		ad.Advise(off, size, a)
	}
}
