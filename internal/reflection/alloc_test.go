package reflection

import (
	"testing"

	"steelnet/internal/sim"
)

// TestNoFrameLeaks: once Result has stopped the flows and drained the
// cell, every probe the pool ever handed out is back in it, and so is
// every INT stack — for every variant, with and without INT. A double
// release would panic in Put.
func TestNoFrameLeaks(t *testing.T) {
	for _, proto := range AllVariants() {
		for _, withINT := range []bool{false, true} {
			cfg := smallConfig()
			cfg.Flows = 3
			cfg.INT = withINT
			h := NewHarness(cfg, proto.CloneFresh())
			h.AdvanceTo(h.Horizon())
			if h.FramesOutstanding() == 0 {
				t.Fatalf("%s int=%t: no probe in flight at the horizon; the drain is not exercised", proto.Name, withINT)
			}
			res := h.Result()
			if got := h.FramesOutstanding(); got != 0 {
				t.Fatalf("%s int=%t: %d frames outstanding after the drain (pool %+v)", proto.Name, withINT, got, h.pool)
			}
			if res.Delays.Len() == 0 || h.pool.Reused == 0 {
				t.Fatalf("%s int=%t: %d round trips, pool %+v: nothing was recycled", proto.Name, withINT, res.Delays.Len(), h.pool)
			}
			if got := h.pool.StacksOutstanding(); got != 0 || (h.pool.StackReused != 0) != withINT {
				t.Fatalf("%s int=%t: %d INT stacks outstanding after the drain (pool %+v)", proto.Name, withINT, got, h.pool)
			}
		}
	}
}

// warmHarness builds a cell and runs it long enough for its free lists
// (frames, reflector jobs, port flights, the tap's per-flow RTT slices,
// the ring arena) to reach their working size.
func warmHarness(v Variant, flows, cycles int) (*Harness, sim.Time) {
	cfg := DefaultConfig()
	cfg.Flows = flows
	cfg.Cycles = cycles
	h := NewHarness(cfg, v)
	warm := sim.Time(cfg.Cycle) * 300
	h.AdvanceTo(warm)
	return h, warm
}

// TestReflectionSteadyStateZeroAllocs pins the whole probe lifecycle —
// sender tick, two links, two tap crossings with pairing, the reflector
// job and the XDP program, ring records included — at zero allocations
// per 100 cycles once warm, for every variant. The RTT slices are sized
// by the harness (ReserveRoundTrips) on each flow's first match. The
// ring variants run with a reader that keeps up: an unread ring's
// backlog is the experiment's data and grows (amortized) by design.
func TestReflectionSteadyStateZeroAllocs(t *testing.T) {
	const runs, step = 5, 100
	for _, proto := range AllVariants() {
		// cycles covers warm-up plus AllocsPerRun's runs+1 calls.
		v := proto.CloneFresh()
		h, now := warmHarness(v, 3, 300+(runs+1)*step)
		cycle := sim.Time(h.cfg.Cycle)
		allocs := testing.AllocsPerRun(runs, func() {
			now += step * cycle
			h.AdvanceTo(now)
			for v.Ring != nil && v.Ring.Read() != nil {
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs per %d cycles, want 0", proto.Name, allocs, step)
		}
		if got := len(h.tp.RoundTrip(1)); got < 300+runs*step {
			t.Errorf("%s: flow 1 has %d round trips; the measured cycles did not run", proto.Name, got)
		}
	}
}

// BenchmarkReflectionProbe is one probe cycle of a single-flow Base
// cell per op: the scripts/benchdiff.sh guard holds it at 0 allocs/op.
func BenchmarkReflectionProbe(b *testing.B) {
	h, now := warmHarness(NewBase(), 1, 300+b.N)
	cycle := sim.Time(h.cfg.Cycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += cycle
		h.AdvanceTo(now)
	}
}
