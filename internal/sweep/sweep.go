// Package sweep runs independent work in parallel. Every experiment in
// this repository is a self-contained deterministic simulation (its own
// engine, hosts and RNG), so parameter sweeps are embarrassingly
// parallel; the figure runners use this package to fan out across cores
// while keeping results in deterministic order, and the fluid tier runs
// its per-tick flow pass on it.
//
// All parallel loops share one bounded pool of long-lived workers
// instead of spawning goroutines per call: a figure suite makes hundreds
// of Map calls and a fluid run thousands of ticks, and churning worker
// goroutines (plus their stacks) for each one is measurable overhead.
// Batch is the one recruitment path. Its caller always works through its
// own indices, recruits helpers without blocking, and waits only for
// helpers that joined before the indices ran out; a worker that comes
// later no longer finds the batch. So a batch issued from inside another
// batch's body can never deadlock — worst case it runs on the caller
// alone.
package sweep

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The shared pool: workers sleep on wake and, once woken, help every
// open batch until none has a helper slot left.
var (
	poolOnce sync.Once
	poolSize int
	wake     chan struct{}

	poolMu sync.Mutex
	open   []*Batch // batches with helper slots left, oldest first
)

// startPool starts the workers on first use. The pool is bounded at
// GOMAXPROCS workers: the loops are CPU-bound, so more would only add
// scheduling overhead.
func startPool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		wake = make(chan struct{}, poolSize)
		for w := 0; w < poolSize; w++ {
			go func() {
				for range wake {
					for helpOne() {
					}
				}
			}()
		}
	})
}

// Workers returns the number of pool workers (GOMAXPROCS when the pool
// started), which is how many participants a loop can keep busy.
func Workers() int {
	startPool()
	return poolSize
}

// Batch is a reusable parallel loop: Run calls a body for every index of
// [0, n) on the caller and on helpers recruited from the shared pool.
// After its first Run a Batch allocates nothing, so a hot loop can keep
// one and run it every step. The zero value is ready to use. A Batch runs
// one loop at a time and must not be copied after its first Run.
type Batch struct {
	n    int64
	body func(slot, i int)
	next atomic.Int64

	// Guarded by poolMu.
	slot, workers int  // next helper slot to hand out; slots in use
	inside        int  // helpers that joined and have not left
	closed        bool // the caller claimed its last index

	done chan struct{} // the last helper out of a closed batch signals here
}

// Run calls body(slot, i) once for every i in [0, n), on the caller (slot
// 0) and up to workers-1 pool helpers (slots 1 to workers-1), and
// returns once every call has returned. Participants claim indices in
// increasing order from a shared cursor; a slot is never held by two
// participants, so body may accumulate into per-slot state without
// synchronization. workers <= 1, or n == 1, runs every index on the
// caller.
//
// Recruitment never blocks: Run opens the batch to the pool and wakes
// idle workers. Once the caller runs out of indices it closes the batch
// and waits only for the helpers already inside; a worker that comes
// later no longer finds the batch, so Run never waits on a busy pool.
func (b *Batch) Run(n, workers int, body func(slot, i int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	startPool()
	if b.done == nil {
		b.done = make(chan struct{}, 1)
	}
	b.n, b.body = int64(n), body
	b.next.Store(0)

	poolMu.Lock()
	b.slot, b.workers, b.inside, b.closed = 1, workers, 0, false
	open = append(open, b)
	poolMu.Unlock()
	for k := 1; k < workers; k++ {
		select {
		case wake <- struct{}{}:
		default: // every worker already has a wake-up pending
		}
	}

	b.loop(0)
	poolMu.Lock()
	b.closed = true
	unlist(b)
	wait := b.inside > 0
	poolMu.Unlock()
	if wait {
		<-b.done
	}
	b.body = nil
}

// helpOne joins the oldest open batch as its next helper, works until its
// indices run out, and leaves. It reports false when no batch is open.
func helpOne() bool {
	poolMu.Lock()
	if len(open) == 0 {
		poolMu.Unlock()
		return false
	}
	b := open[0]
	slot := b.slot
	b.slot++
	if b.slot == b.workers {
		unlist(b)
	}
	b.inside++
	poolMu.Unlock()

	b.loop(slot)

	poolMu.Lock()
	b.inside--
	last := b.closed && b.inside == 0
	poolMu.Unlock()
	if last {
		b.done <- struct{}{}
	}
	return true
}

// unlist removes b from the open batches, if it is there. poolMu held.
func unlist(b *Batch) {
	if i := slices.Index(open, b); i >= 0 {
		open = slices.Delete(open, i, i+1)
	}
}

// loop claims and runs indices until none remain.
func (b *Batch) loop(slot int) {
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.body(slot, int(i))
	}
}

// Map evaluates fn(0..n-1) using up to workers concurrent evaluations
// (workers <= 0 selects NumCPU) and returns the results in index order.
// fn must be safe to call concurrently for distinct indices — trivially
// true for independent simulations. Map may be called from inside
// another Map's fn: it runs on a Batch, so nesting degrades to serial
// rather than deadlocking when the pool is saturated.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	out := make([]T, n)
	var b Batch
	b.Run(n, workers, func(_, i int) { out[i] = fn(i) })
	return out
}

// Map2 evaluates a two-axis sweep (the common figure shape: parameter ×
// variant), returning results in row-major order.
func Map2[T any](rows, cols, workers int, fn func(r, c int) T) []T {
	return Map(rows*cols, workers, func(i int) T {
		return fn(i/cols, i%cols)
	})
}

// SeedFor derives the simulation seed for index i of a sweep rooted at
// base. It is a splitmix64 step over base+i, so neighbouring indices get
// statistically independent seeds — seeding engines with base+i directly
// would correlate their RNG streams.
func SeedFor(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// MapSeeded is Map for seed-dependent work: fn receives both the index
// and a per-index seed derived from base via SeedFor. Results are
// independent of worker count and scheduling, so seeded sweeps stay
// reproducible under parallelism.
func MapSeeded[T any](n, workers int, base int64, fn func(i int, seed int64) T) []T {
	return Map(n, workers, func(i int) T {
		return fn(i, SeedFor(base, i))
	})
}
