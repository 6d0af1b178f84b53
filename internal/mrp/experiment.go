package mrp

import (
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/iodevice"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
)

// RingExperimentConfig parameterizes a control loop over an MRP ring
// with a declarative fault plan: the §2.2/§2.3 co-design question —
// does the ring's engineered recovery beat the process watchdog? —
// posed against arbitrary failure scenarios instead of one hardcoded
// cable cut.
type RingExperimentConfig struct {
	Seed uint64
	// Switches is the ring size (default 4). The vPLC hangs off sw0
	// (the manager), the device off the switch diametrically opposite,
	// so mid-ring failures force a reroute.
	Switches int
	// Ring is the MRP profile (test interval × tolerance bounds
	// recovery).
	Ring Config
	// Cycle and WatchdogFactor define the control loop riding the ring.
	Cycle          time.Duration
	WatchdogFactor int
	// Horizon ends the run; LinkBps is the ring link speed.
	Horizon time.Duration
	LinkBps float64
	// Faults optionally replaces the default plan (a permanent cut of
	// ring2 at 500 ms — the classic far-side cable cut). Registered
	// targets: links "ring0".."ringN-1" plus "uplink-plc"/"uplink-dev";
	// switches "sw0".."swN-1"; host "vplc"; ports "sw<i>.<j>" for every
	// switch port plus "vplc"/"io" host egress.
	Faults *faults.Plan
	// Sinks are the telemetry attachments: Trace records the frame
	// lifecycle and fault spans, Metrics receives every component
	// counter. The ring has no INT source, so Collector is ignored.
	sweep.Sinks
}

// DefaultRingExperimentConfig mirrors the integration scenario: a
// 4-switch ring carrying a 1.6 ms cycle with a 3-cycle watchdog.
func DefaultRingExperimentConfig() RingExperimentConfig {
	return RingExperimentConfig{
		Seed:           1,
		Switches:       4,
		Ring:           DefaultConfig,
		Cycle:          1600 * time.Microsecond,
		WatchdogFactor: 3,
		Horizon:        2500 * time.Millisecond,
		LinkBps:        100e6,
	}
}

// RingExperimentResult is the run's ground truth for assertions.
type RingExperimentResult struct {
	// FinalRingState is the manager's state at the horizon.
	FinalRingState RingState
	// Transitions counts ring open/close transitions.
	Transitions uint64
	// TestsSent/TestsReturned count the manager's test frames.
	TestsSent, TestsReturned uint64
	// FirstOpenAt is when the ring first opened (0 = never);
	// LastCloseAt is the latest reconvergence back to closed.
	FirstOpenAt, LastCloseAt sim.Time
	// FailsafeEvents counts device safety stops; DeviceState is the
	// device's state at the horizon.
	FailsafeEvents uint64
	DeviceState    iodevice.State
	// InjectedFaults counts executed fault injections; FaultTrace lists
	// every executed phase.
	InjectedFaults int
	FaultTrace     string
}

// RunRingExperiment builds the ring, applies the fault plan and runs to
// the horizon. It is the straight-through form of the Harness.
func RunRingExperiment(cfg RingExperimentConfig) (RingExperimentResult, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return RingExperimentResult{}, err
	}
	h.AdvanceTo(h.Horizon())
	return h.Result(), nil
}
