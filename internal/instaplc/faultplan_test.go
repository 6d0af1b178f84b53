package instaplc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/iodevice"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
)

// TestTransientStallPlanFailsOver: the Fig. 5 crash expressed as a
// recovering fault — vPLC1 stalls for 400 ms and comes back. InstaPLC
// promotes vPLC2 within the watchdog budget, so the device never
// notices either the stall or the return.
func TestTransientStallPlanFailsOver(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "transient-stall", Events: []faults.Event{
		{At: cfg.FailAt, Kind: faults.KindHostStall, Target: "vplc1",
			Duration: 400 * time.Millisecond},
	}}
	res := RunExperiment(cfg)
	if res.Switchovers == 0 {
		t.Fatal("no switchover on primary stall")
	}
	if res.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d, want 0", res.FailsafeEvents)
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
	if res.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", res.InjectedFaults)
	}
	if !strings.Contains(res.FaultTrace, "inject") || !strings.Contains(res.FaultTrace, "recover") {
		t.Fatalf("trace missing phases:\n%s", res.FaultTrace)
	}
}

// TestLossBurstPlanDegradesGracefully: a 20%% loss burst on the
// pipeline's device-facing egress thins the cyclic stream but, at bin
// granularity, never silences it — availability stays at the floor the
// chaos suite asserts.
func TestLossBurstPlanDegradesGracefully(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "loss", Events: []faults.Event{
		{At: 600 * time.Millisecond, Kind: faults.KindLossBurst, Target: "dp.2",
			Duration: time.Second, Magnitude: 0.2},
		{At: cfg.FailAt, Kind: faults.KindHostStall, Target: "vplc1"},
	}}
	res := RunExperiment(cfg)
	if res.IOAvailability < 0.9 {
		t.Fatalf("IOAvailability = %v, want ≥0.9", res.IOAvailability)
	}
	if res.Switchovers == 0 {
		t.Fatal("crash under loss never failed over")
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
}

// TestEmptyPlanMeansNoFaults: a non-nil empty plan suppresses the
// default crash entirely.
func TestEmptyPlanMeansNoFaults(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "quiet"}
	res := RunExperiment(cfg)
	if res.InjectedFaults != 0 || res.Switchovers != 0 || res.FailsafeEvents != 0 {
		t.Fatalf("quiet run was not quiet: %+v", res)
	}
	if res.IOAvailability != 1 {
		t.Fatalf("IOAvailability = %v, want 1 with no faults", res.IOAvailability)
	}
}

// TestBadPlanPanics: an unknown target is a scenario bug and fails
// loudly before anything runs.
func TestBadPlanPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "ghost") {
			t.Fatalf("recover = %v, want panic naming ghost", r)
		}
	}()
	cfg := DefaultExperimentConfig()
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindHostStall, Target: "ghost"},
	}}
	RunExperiment(cfg)
}

// TestBadPlanIsAnErrorWhereItCanComeFromOutside: BuildHarness — the
// constructor behind a run spec, a -faults flag and a checkpoint's
// recorded configuration — reports the unknown target; Restore passes
// that on instead of panicking inside the replay.
func TestBadPlanIsAnErrorWhereItCanComeFromOutside(t *testing.T) {
	ghost := &faults.Plan{Events: []faults.Event{{Kind: faults.KindHostStall, Target: "ghost"}}}
	cfg := DefaultExperimentConfig()
	cfg.Faults = ghost
	if h, err := BuildHarness(cfg); err == nil || h != nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("BuildHarness = %v, %v; want an error naming ghost", h, err)
	}

	cfg.Faults = nil
	h := NewHarness(cfg)
	h.cfg.Faults = ghost // what a crafted or damaged checkpoint would carry
	var ck bytes.Buffer
	if err := h.Save(&ck); err != nil {
		t.Fatal(err)
	}
	if h, err := Restore(&ck, nil, nil); err == nil || h != nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Restore = %v, %v; want an error naming ghost", h, err)
	}
}

// TestConnectRequestBoundsAreAnError: the connect request carries the
// IO cycle as whole microseconds in a uint32 and the device watchdog
// factor in a uint16. BuildHarness refuses what it cannot carry — a
// cycle that would reach the watchdogs as zero, wrap, or lose its
// fraction — and a checkpoint recording such a configuration restores
// to that error instead of panicking inside the replay.
func TestConnectRequestBoundsAreAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*ExperimentConfig)
	}{
		{"zero cycle", func(c *ExperimentConfig) { c.Cycle = 0 }},
		{"sub-microsecond cycle", func(c *ExperimentConfig) { c.Cycle = 500 * time.Nanosecond }},
		{"fractional cycle", func(c *ExperimentConfig) { c.Cycle = 1500 * time.Nanosecond }},
		{"cycle past a uint32 of microseconds", func(c *ExperimentConfig) { c.Cycle = 2 * time.Hour }},
		{"zero watchdog factor", func(c *ExperimentConfig) { c.DeviceWatchdogFactor = 0 }},
		{"watchdog factor past a uint16", func(c *ExperimentConfig) { c.DeviceWatchdogFactor = 1 << 16 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultExperimentConfig()
			tc.forge(&cfg)
			if h, err := BuildHarness(cfg); err == nil || h != nil || !strings.Contains(err.Error(), "connect request") {
				t.Fatalf("BuildHarness = %v, %v; want an error naming the connect request", h, err)
			}
			h := NewHarness(DefaultExperimentConfig())
			h.AdvanceTo(sim.Time(10 * time.Millisecond))
			tc.forge(&h.cfg) // what a crafted or damaged checkpoint would carry
			var ck bytes.Buffer
			if err := h.Save(&ck); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("RestoreWith of a forged configuration panicked: %v", p)
				}
			}()
			if h, err := RestoreWith(&ck, sweep.Sinks{}); err == nil || h != nil {
				t.Fatalf("RestoreWith = %v, %v; want an error", h, err)
			}
		})
	}
	for _, cycle := range []time.Duration{time.Microsecond, math.MaxUint32 * time.Microsecond} {
		cfg := DefaultExperimentConfig()
		cfg.Cycle = cycle
		if _, err := BuildHarness(cfg); err != nil {
			t.Errorf("BuildHarness with a %v cycle: %v", cycle, err)
		}
	}
}
