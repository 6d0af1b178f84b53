package sweep

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunPreservesInputOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got := Run(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCallsEachCellExactlyOnce(t *testing.T) {
	const n = 1000
	var calls [n]atomic.Int32
	Run(8, n, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("cell %d called %d times", i, c)
		}
	}
}

func TestRunZeroAndNegativeN(t *testing.T) {
	if got := Run(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("Run(n=0) = %v, want nil", got)
	}
	if got := Run(4, -3, func(i int) int { return i }); got != nil {
		t.Fatalf("Run(n<0) = %v, want nil", got)
	}
}

func TestRunWorkersClampedToN(t *testing.T) {
	// More workers than cells must not call fn with out-of-range i.
	got := Run(64, 3, func(i int) int {
		if i < 0 || i >= 3 {
			t.Errorf("fn called with i=%d", i)
		}
		return i
	})
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestRunSerialOnCallerGoroutine(t *testing.T) {
	// workers==1 must run inline: writes need no synchronization.
	sum := 0
	Run(1, 10, func(i int) int {
		sum += i // would race if fn ran on another goroutine
		return i
	})
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("recovered %v, want message containing worker's value", r)
		}
	}()
	Run(4, 100, func(i int) int {
		if i == 17 {
			panic("boom")
		}
		return i
	})
}

// TestRunStopsDispatchAfterPanic: once a cell has panicked the pool
// hands out nothing more — the cells already running finish, the rest
// of the grid is never started.
func TestRunStopsDispatchAfterPanic(t *testing.T) {
	const n, workers = 1000, 4
	var calls atomic.Int32
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
		// Exactly `workers` when the panic is recorded before any other
		// worker asks again; the recording races with them, so allow
		// each a few more. A pool that keeps dispatching runs all n.
		if c := calls.Load(); c >= n/10 {
			t.Fatalf("%d of %d cells started: dispatch continued after the panic", c, n)
		}
	}()
	var parked sync.WaitGroup
	parked.Add(workers)
	panicked := make(chan struct{})
	Run(workers, n, func(i int) int {
		calls.Add(1)
		if i < workers {
			// The first cell of every worker: wait until all are inside
			// one, so none is free when cell 0 panics.
			parked.Done()
			parked.Wait()
		}
		if i == 0 {
			defer close(panicked)
			panic("boom")
		}
		<-panicked
		for k := 0; k < 100; k++ {
			runtime.Gosched() // let the panicking worker record it
		}
		return i
	})
}

func TestRunManyMoreCellsThanWorkers(t *testing.T) {
	var running, peak atomic.Int32
	Run(3, 500, func(i int) int {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer running.Add(-1)
		return i
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent cells with 3 workers", p)
	}
}
