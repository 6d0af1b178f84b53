package instaplc

import (
	"strings"
	"testing"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/iodevice"
	"steelnet/internal/sim"
)

func steady(counts []int, from, to int) (min, max int) {
	min, max = 1<<30, 0
	for i := from; i < to && i < len(counts); i++ {
		if counts[i] < min {
			min = counts[i]
		}
		if counts[i] > max {
			max = counts[i]
		}
	}
	return
}

func TestFigure5SeamlessSwitchover(t *testing.T) {
	cfg := DefaultExperimentConfig()
	res := RunExperiment(cfg)

	// The device never trips failsafe: that is InstaPLC's whole point.
	if res.FailsafeEvents != 0 {
		t.Fatalf("failsafe events = %d, want 0", res.FailsafeEvents)
	}
	if res.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", res.DeviceState)
	}
	if res.Switchovers != 1 {
		t.Fatalf("switchovers = %d, want 1", res.Switchovers)
	}

	// Switchover happens within the data-plane watchdog window
	// (2 × 1.6 ms) plus pipeline slack, far under the device budget.
	gap := res.SwitchoverAt.Sub(res.FailAt)
	if gap <= 0 || gap > 5*time.Millisecond {
		t.Fatalf("switchover after %v, want ≈3.2ms", gap)
	}
}

func TestFigure5RateShapes(t *testing.T) {
	cfg := DefaultExperimentConfig()
	res := RunExperiment(cfg)
	binsPerSec := int(time.Second / cfg.Bin)
	failBin := int(cfg.FailAt / cfg.Bin)

	// Steady state before the failure: both vPLCs at ≈31 packets/50 ms.
	for name, series := range map[string][]int{"vplc1": res.FromVPLC1, "vplc2": res.FromVPLC2} {
		lo, hi := steady(series, binsPerSec/2, failBin-1)
		if lo < 29 || hi > 34 {
			t.Fatalf("%s steady rate [%d,%d], want ≈31", name, lo, hi)
		}
	}
	// After the failure: vPLC1 silent, vPLC2 still ≈31.
	lo, hi := steady(res.FromVPLC1, failBin+2, len(res.FromVPLC1))
	if hi != 0 {
		t.Fatalf("vPLC1 after failure [%d,%d], want 0", lo, hi)
	}
	lo, hi = steady(res.FromVPLC2, failBin+2, len(res.FromVPLC2))
	if lo < 29 || hi > 34 {
		t.Fatalf("vPLC2 after failure [%d,%d], want ≈31", lo, hi)
	}
	// To-I/O: ≈31 before and after; at most a one-bin dip at failure of
	// no more than the watchdog's worth of cycles.
	lo, hi = steady(res.ToIO, binsPerSec/2, failBin-1)
	if lo < 29 || hi > 34 {
		t.Fatalf("to-I/O before failure [%d,%d], want ≈31", lo, hi)
	}
	lo, hi = steady(res.ToIO, failBin+2, len(res.ToIO))
	if lo < 29 || hi > 34 {
		t.Fatalf("to-I/O after failure [%d,%d], want ≈31", lo, hi)
	}
	// The dip bin: with a 3.2 ms outage in a 50 ms bin, at least
	// 31-3 packets still arrive.
	dip := res.ToIO[failBin]
	if failBin+1 < len(res.ToIO) && res.ToIO[failBin+1] < dip {
		dip = res.ToIO[failBin+1]
	}
	if dip < 26 {
		t.Fatalf("to-I/O dip = %d packets/bin, want >= 26 (seamless)", dip)
	}
}

func TestTwinAbsorbsSecondaryFrames(t *testing.T) {
	res := RunExperiment(DefaultExperimentConfig())
	// vPLC2 emitted ≈31/50ms for ≈1.1 s before the failover; all those
	// frames must have been absorbed in the data plane.
	if res.AbsorbedFrames < 500 {
		t.Fatalf("absorbed = %d, want ≈680", res.AbsorbedFrames)
	}
}

func TestBaselineWithoutInstaPLCGoesFailsafe(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.DisableInstaPLC = true
	res := RunExperiment(cfg)
	if res.FailsafeEvents == 0 {
		t.Fatal("baseline avoided failsafe — InstaPLC comparison is meaningless")
	}
	if res.Switchovers != 0 {
		t.Fatalf("baseline reported switchovers = %d", res.Switchovers)
	}
}

func TestNoSecondaryMeansNoSwitchover(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.SecondaryJoinAt = cfg.Horizon + time.Second // never joins
	res := RunExperiment(cfg)
	if res.Switchovers != 0 {
		t.Fatalf("switchovers = %d with no secondary", res.Switchovers)
	}
	// Without a standby the device must failsafe, as §4 warns.
	if res.FailsafeEvents == 0 {
		t.Fatal("device survived primary loss without any standby")
	}
}

func TestSwitchoverFasterThanDeviceWatchdog(t *testing.T) {
	cfg := DefaultExperimentConfig()
	res := RunExperiment(cfg)
	deviceBudget := time.Duration(cfg.DeviceWatchdogFactor) * cfg.Cycle
	gap := res.SwitchoverAt.Sub(res.FailAt)
	if gap >= deviceBudget {
		t.Fatalf("switchover %v >= device watchdog %v", gap, deviceBudget)
	}
}

func TestDeterministicExperiment(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Horizon = time.Second
	cfg.FailAt = 500 * time.Millisecond
	a := RunExperiment(cfg)
	b := RunExperiment(cfg)
	if a.SwitchoverAt != b.SwitchoverAt || a.AbsorbedFrames != b.AbsorbedFrames {
		t.Fatal("same seed diverged")
	}
	for i := range a.ToIO {
		if a.ToIO[i] != b.ToIO[i] {
			t.Fatal("rate series diverged")
		}
	}
}

func TestRoleAccounting(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Horizon = time.Second
	cfg.FailAt = 10 * time.Second // never fails within horizon
	e := sim.NewEngine(1)
	_ = e
	res := RunExperiment(cfg)
	if res.Switchovers != 0 {
		t.Fatal("spurious switchover")
	}
}

func TestRenderFigure5(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Horizon = time.Second
	cfg.FailAt = 500 * time.Millisecond
	out := RenderFigure5(RunExperiment(cfg))
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "vPLC1") {
		t.Fatalf("render = %q", out)
	}
}

func TestThirdControllerRefused(t *testing.T) {
	// Direct app-level test: a third vPLC gets a busy rejection.
	cfg := DefaultExperimentConfig()
	cfg.Horizon = 600 * time.Millisecond
	cfg.FailAt = 10 * time.Second
	// Run the standard experiment but attach a third controller.
	// (Reuses RunExperiment's topology via a custom build below.)
	e := sim.NewEngine(3)
	res := buildThreeControllerCell(e)
	e.RunUntil(sim.Time(800 * time.Millisecond))
	if !res.thirdRejected {
		t.Fatal("third controller was not refused")
	}
}

func TestTwinRecordsCRParameters(t *testing.T) {
	e := sim.NewEngine(1)
	res := buildThreeControllerCell(e)
	e.RunUntil(sim.Time(500 * time.Millisecond))
	twin, ok := res.app.TwinOf(frame.NewMAC(3))
	if !ok {
		t.Fatal("no twin")
	}
	if twin.Req.ARID != 1 || twin.Req.CycleUS != 1600 {
		t.Fatalf("twin CR = %+v", twin.Req)
	}
	if len(twin.LastInput) == 0 {
		t.Fatal("twin never observed device inputs")
	}
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleSecondary.String() != "secondary" || RoleNone.String() != "none" {
		t.Fatal("role names")
	}
}

func TestPlannedSwitchoverIsInterruptionFree(t *testing.T) {
	// Migration use case [73]: hand the device to the standby with no
	// failure at all. The device must never miss a cycle.
	cfg := DefaultExperimentConfig()
	cfg.FailAt = 10 * time.Second // never fails
	cfg.Horizon = 2 * time.Second

	e := sim.NewEngine(cfg.Seed)
	pipe, app, vplc1, vplc2, dev := buildCell(e, cfg)
	_ = pipe
	_ = vplc2
	migrated := false
	e.Schedule(sim.Time(time.Second), sim.Func(func() {
		migrated = app.PlannedSwitchover(dev.Host().MAC())
	}))
	e.RunUntil(sim.Time(cfg.Horizon))
	if !migrated {
		t.Fatal("planned switchover refused")
	}
	if dev.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d during planned migration", dev.FailsafeEvents)
	}
	if dev.State() != iodevice.StateOperate {
		t.Fatalf("device state = %v", dev.State())
	}
	if app.Switchovers != 1 {
		t.Fatalf("switchovers = %d", app.Switchovers)
	}
	// The old primary's frames are now absorbed; the device keeps
	// being fed by the new active controller.
	if app.Role(dev.Host().MAC(), vplc1.Host().MAC()) != RoleSecondary {
		t.Fatal("old primary not demoted")
	}
}

func TestPlannedSwitchoverRefusedWithoutStandby(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.SecondaryJoinAt = 10 * time.Second
	cfg.FailAt = 10 * time.Second
	cfg.Horizon = 500 * time.Millisecond
	e := sim.NewEngine(cfg.Seed)
	_, app, _, _, dev := buildCell(e, cfg)
	e.RunUntil(sim.Time(400 * time.Millisecond))
	if app.PlannedSwitchover(dev.Host().MAC()) {
		t.Fatal("migration accepted with no standby")
	}
	if app.PlannedSwitchover(frame.NewMAC(0xbeef)) {
		t.Fatal("migration accepted for unknown device")
	}
}

func TestRestartedPrimaryBecomesStandbyThenFailsBack(t *testing.T) {
	// Full lifecycle: vPLC1 fails -> vPLC2 takes over -> vPLC1 restarts
	// and slots in as the new standby -> vPLC2 fails -> control returns
	// to vPLC1. The device never failsafes across the whole dance.
	cfg := DefaultExperimentConfig()
	cfg.FailAt = 10 * time.Second // scripted manually below
	cfg.Horizon = 10 * time.Second
	e := sim.NewEngine(cfg.Seed)
	_, app, vplc1, vplc2, dev := buildCell(e, cfg)

	e.Schedule(sim.Time(time.Second), sim.Func(vplc1.Fail))
	e.Schedule(sim.Time(2*time.Second), sim.Func(vplc1.Restart))
	e.Schedule(sim.Time(3*time.Second), sim.Func(vplc2.Fail))
	e.RunUntil(sim.Time(4 * time.Second))

	if dev.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d across double failover", dev.FailsafeEvents)
	}
	if dev.State() != iodevice.StateOperate {
		t.Fatalf("device state = %v", dev.State())
	}
	if app.Switchovers != 2 {
		t.Fatalf("switchovers = %d, want 2", app.Switchovers)
	}
	if app.Role(dev.Host().MAC(), vplc1.Host().MAC()) != RolePrimary {
		t.Fatal("control did not return to vPLC1")
	}
	if app.Role(dev.Host().MAC(), vplc2.Host().MAC()) != RoleSecondary {
		t.Fatal("vPLC2 not demoted")
	}
}
