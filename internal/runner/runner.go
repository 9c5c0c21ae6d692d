// Package runner executes independent sweep points across a bounded worker
// pool while preserving the exact observable behavior of a serial loop.
//
// Every experiment in this repository is a sweep over independent
// configurations, each of which builds and runs its own private sim.Env.
// The engine's determinism rests on single-owner handoff *within* one Env;
// it says nothing about two Envs living on different OS threads, so whole
// points can fan out across cores as long as three properties hold:
//
//  1. one Env per point — a closure never touches another point's
//     simulation state;
//  2. ordered merge — results are stored by input index, so output is
//     byte-identical to the serial loop regardless of completion order;
//  3. deterministic failure — when points fail, the error (or panic)
//     reported is the one the serial loop would have hit first, i.e. the
//     lowest-index one, not whichever goroutine lost the race.
//
// The pool itself is structured concurrency in the sync.WaitGroup sense:
// every worker goroutine is joined before Map returns, so no
// simulation work ever outlives the call that spawned it. The cdivet
// barego analyzer recognizes exactly this shape.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a worker-count knob: non-positive values select
// GOMAXPROCS (use every core), anything else is returned unchanged.
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// capturedPanic preserves a worker panic (value and stack) so it can be
// re-raised on the caller's goroutine after the pool is joined.
type capturedPanic struct {
	value any
	stack []byte
}

func (c *capturedPanic) repanic() {
	panic(fmt.Sprintf("runner: worker panic: %v\n%s", c.value, c.stack))
}

// Map runs fn(i) for every i in [0, n) and returns the results in input
// order. workers bounds the number of concurrently running points
// (non-positive = GOMAXPROCS); workers == 1 runs everything inline on the
// calling goroutine — the exact serial path, stopping at the first error.
//
// In parallel mode every point runs to completion even if another point
// has already failed: errors are deterministic per point (each owns its
// own simulation), so always returning the lowest-index error keeps the
// call's outcome independent of goroutine scheduling. A panicking point
// likewise does not tear down the process from a worker stack; the
// lowest-index panic is re-raised on the caller's goroutine.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative point count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	workers = Jobs(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	panics := make([]*capturedPanic, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runPoint(i, fn, results, errs, panics)
			}
		}()
	}
	wg.Wait()

	for _, p := range panics {
		if p != nil {
			p.repanic()
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runPoint executes one point, converting a panic into a captured record
// so the pool can keep draining and the caller can re-raise
// deterministically.
func runPoint[T any](i int, fn func(int) (T, error), results []T, errs []error, panics []*capturedPanic) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &capturedPanic{value: r, stack: stack()}
		}
	}()
	results[i], errs[i] = fn(i)
}

// stack returns the current goroutine's stack, bounded so a deep
// simulation stack cannot balloon a captured panic.
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
