package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	intnet "steelnet/internal/int"
	"steelnet/internal/iodevice"
)

// The chaos suite's invariants: whatever the generated fault plan does,
// the cell must come back — the engine terminates (implicit in any
// completed run), availability holds a floor, quiet cells stay quiet,
// and the ladder is monotone in spirit (faults only ever appear when
// asked for).

func TestChaosSweepInvariants(t *testing.T) {
	cfg := DefaultChaosConfig()
	cells := runChaos(t, cfg)
	if len(cells) != len(cfg.Intensities)*cfg.Trials {
		t.Fatalf("got %d cells, want %d", len(cells), len(cfg.Intensities)*cfg.Trials)
	}
	for _, c := range cells {
		if c.InjectedFaults != c.Intensity {
			t.Errorf("cell (%d,%d): injected %d faults, want %d",
				c.Intensity, c.Trial, c.InjectedFaults, c.Intensity)
		}
		// Generated faults always recover, InstaPLC rides through host
		// stalls, and the bin floor holds even under the heaviest
		// ladder rung (deterministic: these seeds either pass forever
		// or fail forever).
		if c.IOAvailability < 0.8 {
			t.Errorf("cell (%d,%d): IOAvailability %.4f below 0.8 floor\nplan: %s",
				c.Intensity, c.Trial, c.IOAvailability, c.Plan)
		}
		// Frame conservation per run: everything the egress queues
		// accepted is delivered, destroyed for a cause, or still in the
		// network at the horizon (forwarded + dropped == sent).
		if err := c.Accounting.Check(); err != nil {
			t.Errorf("cell (%d,%d): %v\nplan: %s", c.Intensity, c.Trial, err, c.Plan)
		}
		if c.Accounting.Accepted == 0 {
			t.Errorf("cell (%d,%d): accounting saw no traffic", c.Intensity, c.Trial)
		}
		if c.Intensity == 0 {
			if c.Switchovers != 0 || c.FailsafeEvents != 0 || c.IOAvailability != 1 {
				t.Errorf("quiet cell (%d,%d) was not quiet: %+v", c.Intensity, c.Trial, c)
			}
			if c.DeviceState != iodevice.StateOperate {
				t.Errorf("quiet cell (%d,%d): device state %v", c.Intensity, c.Trial, c.DeviceState)
			}
		}
	}
}

func TestChaosPlansAreReplayable(t *testing.T) {
	// Every cell's plan string must reparse and reproduce the cell's
	// result when run directly — the property that turns a chaos
	// finding into a regression test.
	cfg := DefaultChaosConfig()
	cfg.Intensities = []int{6}
	cfg.Trials = 1
	cells := runChaos(t, cfg)
	c := cells[0]
	replayed := replayCell(t, cfg, c)
	if replayed.Switchovers != c.Switchovers ||
		replayed.FailsafeEvents != c.FailsafeEvents ||
		replayed.IOAvailability != c.IOAvailability {
		t.Fatalf("replay from plan string diverged:\nsweep:  %+v\nreplay: switchovers=%d failsafes=%d avail=%v",
			c, replayed.Switchovers, replayed.FailsafeEvents, replayed.IOAvailability)
	}
}

func replayCell(t *testing.T, cfg ChaosConfig, c ChaosCell) instaplc.ExperimentResult {
	t.Helper()
	plan, err := faults.ParsePlan(c.Plan)
	if err != nil {
		t.Fatalf("cell plan %q does not reparse: %v", c.Plan, err)
	}
	ecfg := cfg.Base
	ecfg.Seed = c.Seed
	ecfg.Faults = &plan
	return instaplc.RunExperiment(ecfg)
}

// TestChaosSweepINTConservation runs the ladder with in-band telemetry
// on: conservation must hold in every cell while frames carry stamp
// bytes, the collector must see traffic, and the merged collector must
// be byte-identical at any worker count.
func TestChaosSweepINTConservation(t *testing.T) {
	mk := func(workers int) ([]ChaosCell, *intnet.Collector) {
		cfg := DefaultChaosConfig()
		cfg.Intensities = []int{0, 4}
		cfg.Trials = 1
		cfg.Workers = workers
		cfg.Base.SecondaryJoinAt = 100 * time.Millisecond
		cfg.Base.FailAt = 300 * time.Millisecond
		cfg.Base.Horizon = 800 * time.Millisecond
		cfg.Base.INT = true
		cfg.Base.Collector = intnet.NewCollector()
		return runChaos(t, cfg), cfg.Base.Collector
	}

	cells, coll := mk(2)
	var total uint64
	for _, c := range cells {
		if err := c.Accounting.Check(); err != nil {
			t.Errorf("cell (%d,%d) with INT on: %v\nplan: %s", c.Intensity, c.Trial, err, c.Plan)
		}
		if c.INTObservations == 0 {
			t.Errorf("cell (%d,%d) sank no INT stacks", c.Intensity, c.Trial)
		}
		total += c.INTObservations
	}
	if coll.Observations != total {
		t.Fatalf("merged collector saw %d observations, cells report %d", coll.Observations, total)
	}

	_, serial := mk(1)
	var par, ser bytes.Buffer
	if err := coll.WriteJSONL(&par); err != nil {
		t.Fatal(err)
	}
	if err := serial.WriteJSONL(&ser); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(par.Bytes(), ser.Bytes()) {
		t.Fatal("parallel and serial chaos sweeps merged different INT digests")
	}
}

func TestRenderChaosSweep(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Intensities = []int{0, 2}
	cfg.Trials = 1
	out := RenderChaosSweep(runChaos(t, cfg))
	for _, want := range []string{"Chaos sweep", "IO avail", "per-intensity availability", "operate"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// runChaos runs the ladder; an error fails the test.
func runChaos(t *testing.T, cfg ChaosConfig) []ChaosCell {
	t.Helper()
	cells, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}
