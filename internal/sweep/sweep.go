// Package sweep runs independent simulation cells across a bounded
// worker pool. Figure sweeps (reflection variants, flow counts, the
// Fig. 6 topology grid) are embarrassingly parallel: every cell builds
// its own engine from its own seed, so cells may run on separate
// goroutines as long as nothing is shared. Run preserves the input
// order of results, which keeps rendered tables byte-identical to a
// serial sweep — parallelism changes wall-clock time only, never
// output. RunCells (cells.go) is the driver the figure grids call: Run
// plus heaviest-first dispatch and per-cell telemetry sinks. A sweep
// keeps no file: every figure regenerates in seconds.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Run evaluates fn(0) … fn(n-1) on a pool of worker goroutines and
// returns the results in input order. workers <= 0 selects
// runtime.NumCPU(); workers == 1 runs serially on the calling
// goroutine with no synchronization at all.
//
// fn must be safe to call concurrently for distinct i — in this
// codebase that means each cell constructs its own sim.Engine and
// touches no package-level mutable state. If any call panics, no
// further cell is started and Run re-panics on the caller's goroutine
// with the first recovered value once the cells already running have
// finished.
func Run[T any](workers, n int, fn func(i int) T) []T {
	return run(workers, n, nil, fn)
}

// run is Run with a dispatch order: a pool of more than one worker
// starts cell order[0] first, then order[1], and so on (nil means index
// order). The order decides only when a cell runs, never where its
// result goes; the serial path ignores it.
func run[T any](workers, n int, order []int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64 // position in order of the last cell handed out
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n)) // hand out nothing more
					panicMu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					panicMu.Unlock()
				}
			}()
			// Label the worker for CPU profiles (-cpuprofile on the
			// CLIs): samples attribute to sweep workers and, per
			// dispatched cell, to that cell's index — which is how one
			// slow Fig. 6 cell shows up by name in pprof.
			pprof.Do(context.Background(), pprof.Labels("sweep_worker", strconv.Itoa(w)), func(ctx context.Context) {
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					if order != nil {
						i = order[i]
					}
					pprof.Do(ctx, pprof.Labels("sweep_cell", strconv.Itoa(i)), func(context.Context) {
						out[i] = fn(i)
					})
				}
			})
		}()
	}
	wg.Wait()
	if panicked {
		panic(fmt.Sprintf("sweep: worker panicked: %v", panicVal))
	}
	return out
}
