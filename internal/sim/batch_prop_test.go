package sim

import (
	"testing"
)

// The batched dequeue (step in batch mode, used by Run and RunUntil) must be
// observationally identical to the one-at-a-time loop (Step): same
// events, same order, same clock at every callback. These tests drive a
// randomized workload — same-instant bursts, nested scheduling from
// inside callbacks, cross-cancellation including members of the batch
// currently firing — through both loops and require byte-identical
// firing logs.

// wlRec is one firing: which workload event ran and when.
type wlRec struct {
	at Time
	id int
}

// workload builds a self-expanding randomized workload on e and returns
// the firing log collector. The workload's decisions (fan-out, delays,
// cancellations) come from a private RNG drawn in firing order, so two
// runs produce identical logs if and only if events fire in identical
// order.
func workload(e *Engine, seed uint64, maxEvents int) *[]wlRec {
	rng := NewRNG(seed ^ 0x9e3779b97f4a7c15)
	log := &[]wlRec{}
	var handles []Event
	nextID := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		if nextID >= maxEvents {
			return
		}
		id := nextID
		nextID++
		h := e.Schedule(at, Func(func() {
			*log = append(*log, wlRec{e.Now(), id})
			// Fan out: mostly same-instant and near-future events, so
			// batches form and grow while they are being fired.
			for k := rng.Intn(3); k > 0; k-- {
				schedule(e.Now().Add(Duration(rng.Intn(3))))
			}
			// Occasionally cancel a random outstanding event — possibly
			// one staged in the very batch this callback belongs to.
			if len(handles) > 0 && rng.Intn(4) == 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		}))
		handles = append(handles, h)
	}
	// Seed clusters at identical timestamps so the first batches are
	// wide, plus a sprinkle of solo events for the fast path.
	for c := 0; c < 8; c++ {
		at := Time(rng.Intn(5))
		for i := 0; i < 4; i++ {
			schedule(at)
		}
	}
	for i := 0; i < 8; i++ {
		schedule(Time(rng.Intn(20)))
	}
	return log
}

func logsEqual(a, b []wlRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBatchedRunMatchesStepLoop(t *testing.T) {
	const maxEvents = 2000
	for seed := uint64(1); seed <= 50; seed++ {
		eBatch := NewEngine(seed)
		logBatch := workload(eBatch, seed, maxEvents)
		eBatch.Run()

		eStep := NewEngine(seed)
		logStep := workload(eStep, seed, maxEvents)
		for eStep.Step() {
		}

		if !logsEqual(*logBatch, *logStep) {
			t.Fatalf("seed %d: batched Run fired %d events, Step loop %d; logs diverge",
				seed, len(*logBatch), len(*logStep))
		}
		if eBatch.EventsFired() != eStep.EventsFired() {
			t.Fatalf("seed %d: fired counts diverge: batched %d, stepped %d",
				seed, eBatch.EventsFired(), eStep.EventsFired())
		}
	}
}

// TestBatchedRunUntilMatchesStepLoop checks the bounded loop too: a
// drain chopped into arbitrary RunUntil deadlines — deadlines that land
// mid-instant, between instants, and past the horizon — must still
// replay the one-at-a-time order exactly.
func TestBatchedRunUntilMatchesStepLoop(t *testing.T) {
	const maxEvents = 1500
	for seed := uint64(1); seed <= 30; seed++ {
		eChunk := NewEngine(seed)
		logChunk := workload(eChunk, seed, maxEvents)
		step := Time(seed%4 + 1) // vary the chunk width across seeds
		for d := Time(0); eChunk.Pending() > 0; d += step {
			eChunk.RunUntil(d)
		}

		eStep := NewEngine(seed)
		logStep := workload(eStep, seed, maxEvents)
		for eStep.Step() {
		}

		if !logsEqual(*logChunk, *logStep) {
			t.Fatalf("seed %d: chunked RunUntil fired %d events, Step loop %d; logs diverge",
				seed, len(*logChunk), len(*logStep))
		}
	}
}
