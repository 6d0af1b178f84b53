package sim

import (
	"strconv"
	"testing"
)

// The engine benchmarks schedule pointer handlers, the path the model
// runs, not a closure wrapped in a Func.

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e, c := NewEngine(1), &counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, c)
		e.Step()
	}
}

// BenchmarkEngineBatchDrain measures the batched dequeue: 64 events at
// one instant scheduled and drained per iteration, so ns/op covers a
// whole stage-and-fire cycle. The benchdiff alloc guard pins this at
// zero allocations in steady state.
func BenchmarkEngineBatchDrain(b *testing.B) {
	e, c := NewEngine(1), &counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 1
		for j := 0; j < 64; j++ {
			e.Schedule(at, c)
		}
		e.Run()
	}
}

// BenchmarkEngineQueueDepth is the classic hold model at a fixed queue
// depth: every fired event schedules its successor, so the queue pops
// one and pushes one per op. Delays are drawn from Fig. 6's mix — link
// propagation (500 ns), switch pipeline (2 µs ± 50 ns) and a full-size
// frame's serialization at 1 Gb/s (12 µs) — which is what decides how
// far apart the queued timestamps sit.
func BenchmarkEngineQueueDepth(b *testing.B) {
	for _, depth := range []int{1, 64, 512, 4096} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			e := NewEngine(1)
			rng := NewRNG(1)
			h := &holdEv{e: e, delays: make([]Duration, 1<<12)} // drawn up front: the op is the queue, not the RNG
			delays := h.delays
			for i := range delays {
				switch rng.Intn(3) {
				case 0:
					delays[i] = 500 * Nanosecond
				case 1:
					delays[i] = rng.NormDuration(2*Microsecond, 50*Nanosecond, Microsecond)
				default:
					delays[i] = 12 * Microsecond
				}
			}
			for i := 0; i < depth; i++ {
				h.Fire()
			}
			for i := 0; i < 4*depth; i++ { // settle into steady state before timing
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// holdEv is the hold model's handler: each firing schedules its
// successor.
type holdEv struct {
	e      *Engine
	delays []Duration
	next   int
}

func (h *holdEv) Fire() {
	h.e.After(h.delays[h.next&(len(h.delays)-1)], h)
	h.next++
}

func BenchmarkTickerChain(b *testing.B) {
	e := NewEngine(1)
	tk := e.Every(0, 1, &counter{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	tk.Stop()
}

func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(0, 1)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
