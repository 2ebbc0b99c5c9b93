package store

import "time"

// Policy is a bounded exponential retry/backoff. The engine is its one
// user: it retries each page read and each writeback batch and sync, so
// an upcall above it survives a transient device error and only reports
// permanent failures up the GMI error path.
type Policy struct {
	// Attempts is the total number of tries (first try included).
	Attempts int
	// Base is the first backoff delay; it doubles per retry up to Max.
	Base, Max time.Duration
	// Sleep replaces time.Sleep, for deterministic tests. Nil means
	// time.Sleep.
	Sleep func(time.Duration)
	// OnRetry observes each retry decision: the attempt that failed
	// (1-based), the backoff about to be taken, and the error. Stats and
	// tracing hang off this hook.
	OnRetry func(attempt int, backoff time.Duration, err error)
}

// DefaultPolicy is the retry schedule used when a zero Policy is given:
// 6 attempts backing off 50µs → 5ms, ~10ms worst-case added latency.
func DefaultPolicy() Policy {
	return Policy{Attempts: 6, Base: 50 * time.Microsecond, Max: 5 * time.Millisecond}
}

// norm fills zero fields from DefaultPolicy.
func (p Policy) norm() Policy {
	d := DefaultPolicy()
	if p.Attempts <= 0 {
		p.Attempts = d.Attempts
	}
	if p.Base <= 0 {
		p.Base = d.Base
	}
	if p.Max <= 0 {
		p.Max = d.Max
	}
	return p
}

// Do runs op, retrying transient failures (IsTransient) with exponential
// backoff. Permanent errors return immediately; a transient error that
// survives every attempt is returned as-is (still matching ErrTransient,
// but by then every layer has given up, so callers treat it as
// permanent).
func (p Policy) Do(op func() error) error {
	return p.retry(op(), op)
}

// retry continues Do after a first attempt of op that returned err.
func (p Policy) retry(err error, op func() error) error {
	p = p.norm()
	backoff := p.Base
	for attempt := 1; ; attempt++ {
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= p.Attempts {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, backoff, err)
		}
		if p.Sleep != nil {
			p.Sleep(backoff)
		} else {
			time.Sleep(backoff)
		}
		if backoff *= 2; backoff > p.Max {
			backoff = p.Max
		}
		err = op()
	}
}
