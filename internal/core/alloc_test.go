package core

import (
	"runtime"
	"testing"
	"time"

	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
)

// TestChaosCellsLeakNoFrames: under every generated fault plan of the
// default ladder — link-down flushes, wire deaths, injected loss,
// corruption, host stalls — each frame the cell's pool handed out comes
// back: consumed frames through their handler, pipeline drops through
// the pipeline, network drops through Port.OnDrop; and with it the INT
// stack it carried, wherever between source table and egress sink the
// frame ended. The stations never stop ticking, so the check steps to
// the next instant with nothing in the network; a leaked frame means
// there is none. A double release would panic in Put.
func TestChaosCellsLeakNoFrames(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Base.INT = true
	var destroyed, observed uint64
	for i := 0; i < len(cfg.Intensities)*cfg.Trials; i++ {
		h := instaplc.NewHarness(ChaosCellConfig(cfg, i))
		h.AdvanceTo(h.Horizon())
		acct := h.Result().Accounting
		destroyed += acct.Destroyed + acct.DownDrops
		observed += h.Result().INTObservations
		e := h.Engine()
		deadline := e.Now().Add(2 * cfg.Base.Cycle)
		for h.FramesOutstanding() != 0 && e.Now() < deadline {
			h.AdvanceTo(e.Now().Add(sim.Microsecond))
		}
		if got := h.FramesOutstanding(); got != 0 {
			t.Errorf("cell %d: %d frames outstanding with the network idle\nplan: %s\naccounting: %+v",
				i, got, ChaosCellConfig(cfg, i).Faults, acct)
		}
		if got := h.StacksOutstanding(); got != 0 {
			t.Errorf("cell %d: %d INT stacks outstanding with the network idle\nplan: %s",
				i, got, ChaosCellConfig(cfg, i).Faults)
		}
	}
	if destroyed == 0 || observed == 0 {
		t.Fatalf("%d frames destroyed, %d INT stacks sunk; OnDrop or the sinks were not exercised", destroyed, observed)
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestFigureAllocationBudgets bounds what Fig. 4, 5 and 6 allocate per
// frame or request, build and result tables included, so a per-frame
// allocation cannot return unseen between benchmark runs: one pointer
// or closure per frame is 16–64 B, and Fig. 4 or 5 paid 150–850 B
// before its frame lifecycle stopped allocating. What remains is the
// results themselves (a delay slot and a jitter sample per probe, both
// sorted where they lie, so the percentiles copy nothing; three
// counters per Fig. 5 bin) and, for a short Fig. 6 grid, mostly its
// cells' builds. The Fig. 4 budgets are the measured bill plus 10 %
// (62.1 B per round trip left, 18.0 right), the Fig. 6 one plus 5 %
// (5,297 B per request on linux/amd64).
func TestFigureAllocationBudgets(t *testing.T) {
	rcfg := reflection.DefaultConfig()
	rcfg.Cycles = 2000
	rcfg.Workers = 1
	for _, fig := range []struct {
		name   string
		run    func(reflection.Config) (string, []reflection.Result)
		budget float64
	}{
		{"Figure4Delay", Figure4Delay, 69},
		{"Figure4Jitter", Figure4Jitter, 20},
	} {
		before := totalAlloc()
		_, results := fig.run(rcfg)
		spent := totalAlloc() - before
		probes := 0
		for _, r := range results {
			probes += r.Delays.Len()
		}
		if perProbe := float64(spent) / float64(probes); perProbe > fig.budget {
			t.Errorf("%s at %d cycles: %d B for %d round trips = %.1f B each, budget %.0f",
				fig.name, rcfg.Cycles, spent, probes, perProbe, fig.budget)
		}
	}

	ecfg := instaplc.DefaultExperimentConfig()
	ecfg.Horizon = 60 * time.Second
	before := totalAlloc()
	_, res := Figure5(ecfg)
	spent := totalAlloc() - before
	frames := res.Accounting.Accepted
	if perFrame := float64(spent) / float64(frames); perFrame > 8 {
		t.Errorf("Figure5 at %v: %d B for %d frames = %.1f B each, budget 8",
			ecfg.Horizon, spent, frames, perFrame)
	}

	fcfg := mltopo.Figure6Config{Seed: 1, ClientCounts: []int{8, 16}, Horizon: 200 * time.Millisecond, Workers: 1}
	before = totalAlloc()
	_, cells := Figure6(fcfg)
	spent = totalAlloc() - before
	var requests uint64
	for _, c := range cells {
		requests += c.Requests
	}
	if perRequest := float64(spent) / float64(requests); perRequest > 5_550 {
		t.Errorf("Figure6 at clients %v, %v: %d B for %d requests = %.0f B each, budget 5,550",
			fcfg.ClientCounts, fcfg.Horizon, spent, requests, perRequest)
	}
}

// TestHeadlessStepZeroAllocs: the gateway's run driver steps the
// InstaPLC cell with INT on, so each slice carries a stack per cyclic
// frame from the pipeline's source table to its egress sinks, a clone
// of it on the mirror leg, and the collector's fold. Past the failover,
// with every free list at its working size, a slice allocates nothing.
func TestHeadlessStepZeroAllocs(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 6 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for time.Duration(d.Now()) < 2500*time.Millisecond {
		d.Step()
	}
	if res := d.Result(); res.Switchovers != 1 {
		t.Fatalf("warm-up did not cover the failover: %+v", res)
	}
	obs := d.sinks.Collector.Observations
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, func() { d.Step() }); allocs != 0 {
		t.Errorf("%.0f allocs per %v slice, want 0", allocs, d.Config().Slice)
	}
	if got := d.sinks.Collector.Observations - obs; d.Done() || got < runs*50 {
		t.Errorf("done=%t with %d INT observations over the measured slices; they did not run", d.Done(), got)
	}
}
