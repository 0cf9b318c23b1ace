package pdbd

import (
	"context"
	"errors"
	"sync"
)

// singleflight coalesces concurrent computations of the same key: the
// first request becomes the leader and computes, every concurrent
// duplicate waits for the leader's result instead of recomputing.
//
// The subtlety is cancellation: the leader computes under its own
// request context, so a leader whose client disconnects mid-compute
// fails with context.Canceled — an error that says nothing about the
// waiters' requests. Do reports that case as retryable, and the cache
// loop elects a new leader from the surviving waiters.
type singleflight struct {
	mu sync.Mutex
	m  map[string]*sfCall
}

type sfCall struct {
	done    chan struct{}
	ent     *entry
	err     error
	waiters int // guarded by singleflight.mu
}

// errLeaderGone is returned to waiters whose leader was canceled; the
// caller retries with itself as a leader candidate.
type leaderGoneError struct{ err error }

func (e *leaderGoneError) Error() string { return "pdbd: coalesced leader failed: " + e.err.Error() }
func (e *leaderGoneError) Unwrap() error { return e.err }

// waiters reports how many callers are parked on the flight for key
// (0 when no flight is running).
func (g *singleflight) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

// do runs fn once per key per flight. The bool reports whether this
// caller was a waiter (coalesced onto another's computation). A waiter
// whose own ctx expires returns ctx.Err() immediately; a waiter whose
// leader failed with the *leader's* cancellation gets leaderGoneError
// so the caller can retry.
func (g *singleflight) do(ctx context.Context, key string, fn func() (*entry, error)) (*entry, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*sfCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
		if c.err != nil && ctx.Err() == nil {
			// The flight failed but this waiter is still live: if the
			// failure was the leader's own cancellation it says nothing
			// about this request — report it retryable.
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				return nil, &leaderGoneError{c.err}, true
			}
		}
		return c.ent, c.err, true
	}
	c := &sfCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.ent, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.ent, c.err, false
}
