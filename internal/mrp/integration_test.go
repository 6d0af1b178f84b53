package mrp

import (
	"reflect"
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/iodevice"
)

// The integration scenarios express failures as declarative fault
// plans against RunRingExperiment's registered targets: a 1.6 ms
// control loop across a 4-switch MRP ring (vPLC on sw0, device on sw2
// — opposite sides, so a mid-ring failure forces a reroute).

// mustRun runs the ring experiment on a plan the test wrote itself.
func mustRun(t *testing.T, cfg RingExperimentConfig) RingExperimentResult {
	t.Helper()
	res, err := RunRingExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStandardMRPTooSlowForMotionControlWatchdog(t *testing.T) {
	// Standard MRP (3×20 ms) recovers far outside the 4.8 ms device
	// watchdog: the cell failsafes once, then recovers — the §2.2
	// observation that OT failover budgets and network recovery times
	// must be co-designed. The default plan is the classic permanent
	// far-side cable cut at 500 ms.
	res := mustRun(t, DefaultRingExperimentConfig())
	if res.FailsafeEvents == 0 {
		t.Fatal("60ms ring recovery magically beat a 4.8ms watchdog")
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device did not recover after ring reconverged: %v", res.DeviceState)
	}
	if res.FirstOpenAt == 0 || res.FinalRingState != RingOpen {
		t.Fatalf("permanent cut should leave the ring open: openAt=%v state=%v",
			res.FirstOpenAt, res.FinalRingState)
	}
}

func TestFastMRPProfileKeepsWatchdogAlive(t *testing.T) {
	// A fast profile (2×1 ms ≈ 2 ms + reroute) stays inside the 4.8 ms
	// budget: the cut is invisible to the process.
	cfg := DefaultRingExperimentConfig()
	cfg.Ring = Config{TestInterval: time.Millisecond, TestTolerance: 2}
	res := mustRun(t, cfg)
	if res.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d with fast ring profile", res.FailsafeEvents)
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
}

func TestRingHealsAfterLinkFlap(t *testing.T) {
	// A transient cut: the ring opens on the flap and closes again once
	// the link returns and test frames circulate.
	cfg := DefaultRingExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "flap", Events: []faults.Event{
		{At: 500 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "ring2",
			Duration: 800 * time.Millisecond},
	}}
	res := mustRun(t, cfg)
	if res.FirstOpenAt == 0 {
		t.Fatal("ring never opened on the cut")
	}
	if res.FinalRingState != RingClosed || res.LastCloseAt <= res.FirstOpenAt {
		t.Fatalf("ring did not reconverge: state=%v openAt=%v closeAt=%v",
			res.FinalRingState, res.FirstOpenAt, res.LastCloseAt)
	}
	if res.Transitions < 2 {
		t.Fatalf("transitions = %d, want ≥2 (open + close)", res.Transitions)
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
}

func TestRingSurvivesSwitchCrashRestart(t *testing.T) {
	// Crash a transit switch on the active path (sw3: the closed ring
	// forwards sw0→sw3→sw2). The manager sees the silent peer through
	// missing test frames, opens the ring onto the standby path, and
	// closes it again after the switch reboots cold.
	cfg := DefaultRingExperimentConfig()
	cfg.Ring = Config{TestInterval: time.Millisecond, TestTolerance: 2}
	cfg.Faults = &faults.Plan{Name: "crash", Events: []faults.Event{
		{At: 500 * time.Millisecond, Kind: faults.KindSwitchCrash, Target: "sw3",
			Duration: 700 * time.Millisecond},
	}}
	res := mustRun(t, cfg)
	if res.FirstOpenAt == 0 {
		t.Fatal("ring never opened on the switch crash")
	}
	if res.FinalRingState != RingClosed || res.LastCloseAt <= res.FirstOpenAt {
		t.Fatalf("ring did not reconverge after restart: state=%v openAt=%v closeAt=%v",
			res.FinalRingState, res.FirstOpenAt, res.LastCloseAt)
	}
	if res.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d with fast ring profile", res.FailsafeEvents)
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
}

func TestRingExperimentDeterministic(t *testing.T) {
	cfg := DefaultRingExperimentConfig()
	cfg.Faults = &faults.Plan{Name: "flap", Events: []faults.Event{
		{At: 500 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "ring1",
			Duration: 300 * time.Millisecond},
	}}
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, same plan, different results:\n%+v\n%+v", a, b)
	}
}
