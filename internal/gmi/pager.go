package gmi

import "sync/atomic"

// PageRequest is one fill request flowing from a memory manager down to
// a pager driver. The manager builds it with NewPageRequest, hands it to
// Pager.SubmitPull and parks the faulting context; the driver fills the
// bytes and calls Complete exactly once. Complete is idempotent and
// race-safe: the first caller wins, later calls are dropped, so a
// driver may wire both a success path and a timeout/cancel path to the
// same request without coordinating them.
type PageRequest struct {
	// Cache is the cache the fill is destined for, same as the first
	// parameter of Segment.PullIn.
	Cache Cache
	// Off and Size delimit the requested run of bytes (page-aligned,
	// Size a multiple of the page size; more than one page when the
	// manager clusters read-ahead into the request).
	Off, Size int64
	// Mode is the access the faulting context needs, as in PullIn. The
	// driver may grant more (via the granted argument of Complete) but
	// never less.
	Mode Prot
	// Dst, when non-nil, holds the destination of every page of the run:
	// Dst[i] is the page at Off + i*pagesize, one page long — in the PVM
	// it is the Data of the very frame the page will be published in,
	// owned by this request until it completes. A driver that reads
	// straight into Dst completes with nil data; a driver that ignores
	// it (or a decorator that re-wraps the request with NewPageRequest,
	// which has no Dst) completes with the bytes as before and the
	// manager copies them in. The driver must not touch Dst after
	// calling Complete.
	Dst [][]byte
	// Speculative marks read-ahead that no context waits on (see
	// Pager). NewPageRequest, a decorator's re-wrap included, leaves it
	// false: a demand fill.
	Speculative bool

	done     atomic.Bool
	complete func(data []byte, granted Prot, err error)
}

// NewPageRequest builds a demand request whose completion invokes fn
// exactly once, with no destinations (Dst nil). fn runs inline on the
// completing goroutine — the submitter's or a device worker's — so it
// must not assume any manager lock is held.
func NewPageRequest(c Cache, off, size int64, mode Prot, fn func(data []byte, granted Prot, err error)) *PageRequest {
	return &PageRequest{Cache: c, Off: off, Size: size, Mode: mode, complete: fn}
}

// Complete delivers the outcome of the fill. On success either data is
// nil, meaning the driver filled Dst (with Dst nil, the run reads as
// zeroes), or data holds the bytes for [Off, Off+Size), which the
// manager copies into the destination pages — short data is
// zero-extended, matching the zero-fill-beyond-EOF convention of
// FillUp. granted is the protection actually granted (ProtNone means
// "use the requested mode"). On failure err is non-nil and data is
// ignored. Only the first call has any effect; Complete reports whether
// this call was the one that completed the request.
//
// Complete runs manager code inline, on the calling goroutine: it
// publishes the pages and wakes their waiters before it returns, and it
// may take the manager's structural lock to do so. A driver therefore
// calls it holding none of its own locks, from a goroutine that nothing
// the manager waits on while holding its lock depends on; see Pager.
func (r *PageRequest) Complete(data []byte, granted Prot, err error) bool {
	if !r.done.CompareAndSwap(false, true) {
		return false
	}
	r.complete(data, granted, err)
	return true
}

// Done reports whether the request has already been completed.
func (r *PageRequest) Done() bool { return r.done.Load() }

// Pager is the submit/complete mapper protocol: a segment that accepts
// fill requests and completes them itself, on the submitting goroutine
// or later from its own, instead of answering PullIn with FillUp.
// Managers probe for it with a type assertion. The PVM drives a Segment
// that does not implement Pager (a fault injector that forwards only
// Segment, say) through an adapter whose SubmitPull issues PullIn; a
// FillUp of the whole run lands in the request's pages and completes it.
//
// Contract:
//   - A driver may serve a demand request on the calling goroutine,
//     device wait included, completing it before SubmitPull returns: a
//     faulting context waits for it anyway.
//   - SubmitPull must not block on the device for a speculative request;
//     it queues it and returns, so read-ahead overlaps the submitter's
//     work. Quick validation (and immediate Complete on malformed
//     requests) is fine.
//   - Every submitted request must eventually be Completed, even on
//     driver shutdown — a lost completion parks faulting contexts
//     forever.
//   - Completions may be delivered from any goroutine and in any order
//     relative to submission — including synchronously, from inside
//     SubmitPull: the manager holds no lock when it submits, on either
//     fault tier.
//   - Complete runs the manager's completion inline (see Complete). The
//     manager never holds its structural lock, in either mode, while it
//     waits for a pager's device goroutine or for a page in transit. So
//     a driver may call Complete from its device goroutine without
//     deadlocking, provided that goroutine holds no driver lock and the
//     driver's PushOut never waits for it (store.Engine.Write never
//     waits for a worker).
type Pager interface {
	Segment
	SubmitPull(r *PageRequest)
}
