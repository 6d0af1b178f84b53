package instaplc

import (
	"fmt"
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/sim"
)

// requireNoFrameLeak checks the frame-pool identity on a harness whose
// stations never stop ticking: frames are outstanding only while one is
// queued, on a wire or inside a station, so within a couple of I/O
// cycles of any instant there is one where nothing is — unless a frame
// leaked. The harness is stepped forward until that instant.
func requireNoFrameLeak(t *testing.T, h *Harness, label string) {
	t.Helper()
	e := h.Engine()
	deadline := e.Now().Add(2 * h.cfg.Cycle)
	for h.FramesOutstanding() != 0 && e.Now() < deadline {
		h.AdvanceTo(e.Now().Add(sim.Microsecond))
	}
	if got := h.FramesOutstanding(); got != 0 {
		t.Fatalf("%s: %d frames outstanding with the network idle (pool %+v, accounting %+v)",
			label, got, h.pool, h.Result().Accounting)
	}
	if h.pool.Reused == 0 {
		t.Fatalf("%s: pool %+v never recycled a frame", label, h.pool)
	}
	// No frame alive means no stack alive: each one the pool attached
	// was stripped at a sink or came back with its frame.
	if got := h.StacksOutstanding(); got != 0 {
		t.Fatalf("%s: %d INT stacks outstanding with the network idle (pool %+v)", label, got, h.pool)
	}
	if h.coll != nil && h.pool.StackReused == 0 {
		t.Fatalf("%s: pool %+v never recycled an INT stack", label, h.pool)
	}
}

// TestNoFrameLeaks: every frame the Fig. 5 cell's pool hands out comes
// back — through the consuming handler, the pipeline's drop verdict
// (the twin absorbing the standby's outputs), or a port's OnDrop — in
// the default scenario, its plain-L2 baseline and under each fault plan
// of faultplan_test.go. A double release would panic in Put.
func TestNoFrameLeaks(t *testing.T) {
	def := DefaultExperimentConfig()
	plans := map[string]*faults.Plan{
		"fig5":  nil,
		"quiet": {Name: "quiet"},
		"transient-stall": {Name: "transient-stall", Events: []faults.Event{
			{At: def.FailAt, Kind: faults.KindHostStall, Target: "vplc1", Duration: 400 * time.Millisecond},
		}},
		"loss": {Name: "loss", Events: []faults.Event{
			{At: 600 * time.Millisecond, Kind: faults.KindLossBurst, Target: "dp.2", Duration: time.Second, Magnitude: 0.2},
			{At: def.FailAt, Kind: faults.KindHostStall, Target: "vplc1"},
		}},
		"flap-and-corrupt": {Name: "flap-and-corrupt", Events: []faults.Event{
			{At: 500 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "dev-dp", Duration: 30 * time.Millisecond},
			{At: 900 * time.Millisecond, Kind: faults.KindCorruptBurst, Target: "io", Duration: 300 * time.Millisecond, Magnitude: 0.3},
			{At: 1500 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "v2-dp", Duration: 30 * time.Millisecond},
		}},
	}
	for name, plan := range plans {
		for _, baseline := range []bool{false, true} {
			for _, withINT := range []bool{false, true} {
				cfg := def
				cfg.Faults = plan
				cfg.DisableInstaPLC = baseline
				cfg.INT = withINT
				h := NewHarness(cfg)
				h.AdvanceTo(h.Horizon())
				res := h.Result()
				label := name
				if baseline {
					label += "/plain-l2"
				}
				if withINT {
					label += "/int"
				}
				requireNoFrameLeak(t, h, label)
				if name == "flap-and-corrupt" && res.Accounting.FlushedDrops+res.Accounting.WireDrops+res.Accounting.DownDrops == 0 {
					t.Fatalf("%s: link flaps destroyed nothing; OnDrop was not exercised: %+v", label, res.Accounting)
				}
			}
		}
	}
}

// warmCell builds the fault-free Fig. 5 cell — both vPLCs connected,
// fast path installed, the twin absorbing vPLC2 — and runs it until the
// free lists (frames, pipeline jobs, port flights) have their working
// size. horizon bounds the bin series the harness sizes up front.
func warmCell(horizon time.Duration, withINT bool) (*Harness, sim.Time) {
	cfg := DefaultExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "quiet"}
	cfg.Horizon = horizon
	cfg.INT = withINT
	h := NewHarness(cfg)
	warm := sim.Time(cfg.SecondaryJoinAt + 300*time.Millisecond)
	h.AdvanceTo(warm)
	return h, warm
}

// TestInstaPLCCycleZeroAllocs pins the cyclic exchange — two vPLC
// scans and transmissions, the device's input frame mirrored to both,
// pipeline parse/match/rewrite, three watchdog feeds and the entry's
// idle re-arm — at zero allocations per 100 I/O cycles once warm, and
// the same with INT on: a stack attached at the source table, cloned
// onto the mirror leg, stamped per leg and stripped at each egress sink.
func TestInstaPLCCycleZeroAllocs(t *testing.T) {
	const runs, step = 5, 100
	cycle := DefaultExperimentConfig().Cycle
	for _, withINT := range []bool{false, true} {
		t.Run(fmt.Sprintf("int=%t", withINT), func(t *testing.T) {
			h, now := warmCell(time.Second+(runs+1)*step*cycle, withINT)
			rx, obs := h.dev.RxCyclic, h.Result().INTObservations
			allocs := testing.AllocsPerRun(runs, func() {
				now = now.Add(step * cycle)
				h.AdvanceTo(now)
			})
			if allocs != 0 {
				t.Errorf("%.0f allocs per %d I/O cycles, want 0", allocs, step)
			}
			if got := h.dev.RxCyclic - rx; got < runs*step {
				t.Errorf("device consumed %d output frames; the measured cycles did not run", got)
			}
			res := h.Result()
			if res.FailsafeEvents != 0 || res.AbsorbedFrames == 0 {
				t.Errorf("cell not in its steady state: %+v", res)
			}
			if got := res.INTObservations - obs; withINT && got < runs*step {
				t.Errorf("only %d INT observations; the measured cycles carried no telemetry", got)
			}
		})
	}
}

// BenchmarkInstaPLCCycle is one I/O cycle of the warm fault-free cell
// per op (three stations transmit, four frames are delivered): the
// scripts/benchdiff.sh guard holds it at 0 allocs/op.
func BenchmarkInstaPLCCycle(b *testing.B) {
	cycle := DefaultExperimentConfig().Cycle
	h, now := warmCell(time.Second+time.Duration(b.N)*cycle, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(cycle)
		h.AdvanceTo(now)
	}
}
