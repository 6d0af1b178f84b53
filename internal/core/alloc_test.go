package core

import (
	"runtime"
	"testing"
	"time"

	"steelnet/internal/instaplc"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
)

// TestChaosCellsLeakNoFrames: under every generated fault plan of the
// default ladder — link-down flushes, wire deaths, injected loss,
// corruption, host stalls — each frame the cell's pool handed out comes
// back: consumed frames through their handler, pipeline drops through
// the pipeline, network drops through Port.OnDrop. The stations never
// stop ticking, so the check steps to the next instant with nothing in
// the network; a leaked frame means there is none. A double release
// would panic in Put.
func TestChaosCellsLeakNoFrames(t *testing.T) {
	cfg := DefaultChaosConfig()
	var destroyed uint64
	for i := 0; i < len(cfg.Intensities)*cfg.Trials; i++ {
		h := NewChaosCellHarness(cfg, i)
		h.AdvanceTo(h.Horizon())
		acct := h.Result().Accounting
		destroyed += acct.Destroyed + acct.DownDrops
		e := h.Engine()
		deadline := e.Now().Add(2 * cfg.Base.Cycle)
		for h.FramesOutstanding() != 0 && e.Now() < deadline {
			h.AdvanceTo(e.Now().Add(sim.Microsecond))
		}
		if got := h.FramesOutstanding(); got != 0 {
			t.Errorf("cell %d: %d frames outstanding with the network idle\nplan: %s\naccounting: %+v",
				i, got, ChaosCellConfig(cfg, i).Faults, acct)
		}
	}
	if destroyed == 0 {
		t.Fatal("no plan destroyed a frame; OnDrop was not exercised")
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestFigureAllocationBudgets bounds what Fig. 4 and Fig. 5 allocate
// per frame, build and result tables included, so a per-frame
// allocation cannot return unseen between benchmark runs: one pointer
// or closure per frame is 16–64 B, and either figure paid 150–850 B
// before its frame lifecycle stopped allocating. What remains is the
// results themselves (an RTT, a delay and a jitter sample per probe,
// the sort behind the percentiles; three counters per Fig. 5 bin).
func TestFigureAllocationBudgets(t *testing.T) {
	rcfg := reflection.DefaultConfig()
	rcfg.Cycles = 2000
	rcfg.Workers = 1
	before := totalAlloc()
	_, variants := Figure4Delay(rcfg)
	spent := totalAlloc() - before
	probes := 0
	for _, r := range variants {
		probes += r.Delays.Len()
	}
	if perProbe := float64(spent) / float64(probes); perProbe > 200 {
		t.Errorf("Figure4Delay at %d cycles: %d B for %d round trips = %.0f B each, budget 200",
			rcfg.Cycles, spent, probes, perProbe)
	}

	ecfg := instaplc.DefaultExperimentConfig()
	ecfg.Horizon = 60 * time.Second
	before = totalAlloc()
	_, res := Figure5(ecfg)
	spent = totalAlloc() - before
	frames := res.Accounting.Accepted
	if perFrame := float64(spent) / float64(frames); perFrame > 8 {
		t.Errorf("Figure5 at %v: %d B for %d frames = %.1f B each, budget 8",
			ecfg.Horizon, spent, frames, perFrame)
	}
}
