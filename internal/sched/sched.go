// Package sched provides the bounded worker pool shared by every parallel
// stage of the solver: the per-block ILP solves, the phase-2
// partition-coloring stream, and SolveBatch instance scheduling. A single
// Pool bounds the concurrency of a solve (or a whole batch of solves)
// regardless of how many stages are in flight.
//
// The pool is deadlock-free under nesting: a task that cannot obtain a slot
// runs inline on the submitting goroutine instead of queueing. A batch
// instance holding a slot can therefore fan out its own phases on the same
// pool without ever blocking on itself; parallelism degrades gracefully to
// sequential execution when the pool is saturated. The cost of that rule
// is that the bound is approximate, not strict: submitting goroutines
// running tasks inline add to the slot holders, so momentary concurrency
// can exceed Workers by roughly the nesting depth. Treat Workers as a
// parallelism target, not a hard CPU cap.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrently running tasks.
type Pool struct {
	slots  chan struct{}
	claims atomic.Uint64 // slot acquisitions (tasks dispatched to goroutines)
	inline atomic.Uint64 // tasks run inline because the pool was saturated
}

// PoolStats counts dispatch outcomes since the pool was created. A high
// Inline share means stages routinely find the pool saturated and degrade
// to sequential execution — the signal that Workers is undersized for the
// offered load (or that nesting is deep enough to matter).
type PoolStats struct {
	Claims uint64
	Inline uint64
}

// Stats returns the dispatch counters. Nil-safe (a nil pool is the
// sequential path and dispatches nothing).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Claims: p.claims.Load(), Inline: p.inline.Load()}
}

// Busy reports how many worker slots are held right now — the live pool
// occupancy gauge. Nil-safe.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return len(p.slots)
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.slots) }

// TryAcquire claims a slot without blocking; callers that fail to acquire
// must run their task inline.
func (p *Pool) TryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		p.claims.Add(1)
		return true
	default:
		p.inline.Add(1)
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (p *Pool) Release() { <-p.slots }

// ForEach runs fn(0..n-1) with bounded concurrency and returns once every
// call has completed. Indices whose slot acquisition fails run inline, so
// ForEach makes progress even on a saturated (or nested) pool. A nil pool
// runs everything sequentially.
func (p *Pool) ForEach(n int, fn func(int)) {
	if p == nil || p.Workers() == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if p.TryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer p.Release()
				fn(i)
			}(i)
		} else {
			fn(i)
		}
	}
	wg.Wait()
}

// Ordered is a streaming fan-out/fan-in: work(0..n-1) runs on the pool while
// consume(i, result) is called strictly in index order, overlapping later
// work with earlier consumption (there is no barrier between the two).
// work must be a pure function of its index; consume may mutate shared
// state, which makes the combined result independent of scheduling and
// byte-identical to the sequential loop `for i { consume(i, work(i)) }`.
// A nil pool (or a single-worker pool) runs exactly that sequential loop.
func Ordered[T any](p *Pool, n int, work func(int) T, consume func(int, T)) {
	if p == nil || p.Workers() == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			consume(i, work(i))
		}
		return
	}
	results := make([]chan T, n)
	for i := range results {
		results[i] = make(chan T, 1)
	}
	go func() {
		for i := 0; i < n; i++ {
			if p.TryAcquire() {
				go func(i int) {
					defer p.Release()
					results[i] <- work(i)
				}(i)
			} else {
				// Saturated: compute inline so the stream keeps moving.
				results[i] <- work(i)
			}
		}
	}()
	for i := 0; i < n; i++ {
		consume(i, <-results[i])
	}
}
