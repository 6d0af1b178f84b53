package instaplc

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"steelnet/internal/checkpoint"
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

// TestHorizonAndBinBoundsAreAnError: a harness sizes its Fig. 5 rate
// series from Horizon/Bin when it is built. BuildHarness refuses a
// negative horizon, a bin that is not positive and more than maxBins
// bins, and a link rate or secondary join the simulator would panic on;
// a checkpoint recording one restores to that error instead of
// panicking inside the replay (or, for a value JSON cannot carry, is
// never written).
func TestHorizonAndBinBoundsAreAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*ExperimentConfig)
	}{
		{"negative horizon", func(c *ExperimentConfig) { c.Horizon = -time.Second }},
		{"zero bin", func(c *ExperimentConfig) { c.Bin = 0 }},
		{"negative bin", func(c *ExperimentConfig) { c.Bin = -50 * time.Millisecond }},
		{"bins past the bound", func(c *ExperimentConfig) { c.Horizon, c.Bin = 1<<62, time.Nanosecond }},
		{"zero link rate", func(c *ExperimentConfig) { c.LinkBps = 0 }},
		{"negative link rate", func(c *ExperimentConfig) { c.LinkBps = -100e6 }},
		{"NaN link rate", func(c *ExperimentConfig) { c.LinkBps = math.NaN() }},
		{"infinite link rate", func(c *ExperimentConfig) { c.LinkBps = math.Inf(1) }},
		{"negative secondary join", func(c *ExperimentConfig) { c.SecondaryJoinAt = -time.Second }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("a forged configuration panicked: %v", p)
				}
			}()
			cfg := DefaultExperimentConfig()
			tc.forge(&cfg)
			if h, err := BuildHarness(cfg); err == nil || h != nil {
				t.Fatalf("BuildHarness = %v, %v; want an error", h, err)
			}
			h := NewHarness(DefaultExperimentConfig())
			h.AdvanceTo(sim.Time(10 * time.Millisecond))
			tc.forge(&h.cfg)
			var ck bytes.Buffer
			if err := h.Save(&ck); err == nil {
				if h, err := RestoreWith(&ck, sweep.Sinks{}); err == nil || h != nil {
					t.Fatalf("RestoreWith = %v, %v; want an error", h, err)
				}
			}
		})
	}
	for _, tc := range []struct {
		horizon time.Duration
		ok      bool
	}{{maxBins * time.Nanosecond, true}, {(maxBins + 1) * time.Nanosecond, false}} {
		cfg := DefaultExperimentConfig()
		cfg.Horizon, cfg.Bin = tc.horizon, time.Nanosecond
		if err := CheckConnect(cfg); (err == nil) != tc.ok {
			t.Errorf("CheckConnect with %v 1ns bins = %v, want ok=%v", tc.horizon, err, tc.ok)
		}
	}
}

// TestSpecRoundTrip: a checkpoint's run spec is the whole configuration
// but its sinks. Each round fills every field at random, at any depth
// (so a nil and an empty fault plan each come back as what they were),
// saves it and demands it back unchanged from the spec. A new field
// therefore reaches the spec or is tagged `json:"-"` on purpose.
func TestSpecRoundTrip(t *testing.T) {
	h := NewHarness(DefaultExperimentConfig())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		var want ExperimentConfig
		fill(rng, reflect.ValueOf(&want).Elem())
		h.cfg = want
		var ck bytes.Buffer
		if err := h.Save(&ck); err != nil {
			t.Fatalf("Save: %v", err)
		}
		spec, _, _, err := checkpoint.Read(&ck)
		if err != nil {
			t.Fatalf("reading its own checkpoint: %v", err)
		}
		got, err := DecodeSpec(spec)
		if err != nil {
			t.Fatalf("decoding its own spec: %v\n%s", err, spec)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("did not survive the round trip:\n want %+v\n got  %+v", want, got)
		}
	}
}

// fill sets v to a random value of its type, leaving the sinks zero.
// Strings are valid UTF-8: every plan a run accepts names registered
// ASCII targets, and JSON carries nothing else unchanged.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Uint64()))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e6)
	case reflect.String:
		r := make([]rune, rng.Intn(12))
		for i := range r {
			r[i] = rune(rng.Intn(unicode.MaxRune + 1))
		}
		v.SetString(string(r))
	case reflect.Slice:
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(2) == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Name != "Sinks" {
				fill(rng, v.Field(i))
			}
		}
	default:
		panic("no filler for " + v.Type().String())
	}
}
