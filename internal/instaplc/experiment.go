package instaplc

import (
	"fmt"

	"time"

	"steelnet/internal/dataplane"
	"steelnet/internal/faults"
	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/iodevice"
	"steelnet/internal/metrics"
	"steelnet/internal/plc"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
)

// ExperimentConfig parameterizes the Fig. 5 failover scenario.
type ExperimentConfig struct {
	Seed uint64
	// Cycle is the IO cycle (the paper's plot implies ≈1.6 ms: ≈31
	// packets per 50 ms).
	Cycle time.Duration
	// DeviceWatchdogFactor is the device's own safety watchdog.
	DeviceWatchdogFactor int
	// InstaWatchdogCycles is InstaPLC's data-plane watchdog; it must be
	// smaller than the device's factor for a seamless switchover.
	InstaWatchdogCycles int
	// SecondaryJoinAt is when vPLC2 connects; FailAt is when vPLC1
	// crashes; Horizon ends the run.
	SecondaryJoinAt, FailAt, Horizon time.Duration
	// Bin is the rate-series bin (50 ms in the paper).
	Bin time.Duration
	// LinkBps is the cell link speed.
	LinkBps float64
	// DisableInstaPLC runs the same scenario through the pipeline with
	// plain L2 forwarding (no twin, no failover) — the baseline that
	// shows the device going failsafe.
	DisableInstaPLC bool
	// Faults optionally replaces the scenario's fault plan. Nil means
	// the classic Fig. 5 plan (vPLC1 crashes permanently at FailAt); a
	// non-nil empty plan means a fault-free run. Registered targets:
	// hosts "vplc1"/"vplc2"; links "v1-dp"/"v2-dp"/"dev-dp"; ports
	// "vplc1"/"vplc2"/"io" (host egress) and "dp.0"/"dp.1"/"dp.2"
	// (pipeline egress toward vPLC1, vPLC2 and the device).
	Faults *faults.Plan
	// INT runs the pipeline with in-band telemetry: frames are INT-sourced
	// at ingress, transit-stamped, and sunk at egress into the collector,
	// making the failover observable through the data plane. Ignored when
	// DisableInstaPLC is set (the plain-L2 baseline has no fast path).
	INT bool
	// Sinks are the run's telemetry attachments, no part of the run
	// spec (hence the tag: JSON would flatten an embedded struct in)
	// and supplied fresh at Restore. Trace records the full frame lifecycle
	// plus fault injection/recovery spans and is bound to the cell's
	// engine before any traffic flows; Metrics receives every component
	// counter (hosts, pipeline ports, links, engine internals);
	// Collector receives terminated INT stacks (nil with INT set: the
	// harness collects into one of its own, read through Result). A nil
	// tracer or registry costs the run nothing.
	sweep.Sinks `json:"-"`
}

// DefaultExperimentConfig reproduces Fig. 5's setup.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:                 1,
		Cycle:                1600 * time.Microsecond,
		DeviceWatchdogFactor: 3,
		InstaWatchdogCycles:  2,
		SecondaryJoinAt:      200 * time.Millisecond,
		FailAt:               1300 * time.Millisecond,
		Horizon:              3 * time.Second,
		Bin:                  50 * time.Millisecond,
		LinkBps:              100e6,
	}
}

// ExperimentResult carries the Fig. 5 series and the assertions'
// ground truth.
type ExperimentResult struct {
	// FromVPLC1, FromVPLC2 and ToIO are packets per bin (Fig. 5a/5b).
	FromVPLC1, FromVPLC2, ToIO []int
	Bin                        time.Duration
	// SwitchoverAt is when InstaPLC promoted vPLC2 (zero when it never
	// happened).
	SwitchoverAt sim.Time
	// FailAt echoes the configured failure time.
	FailAt sim.Time
	// FailsafeEvents counts device safety stops (must be 0 with
	// InstaPLC).
	FailsafeEvents uint64
	// AbsorbedFrames counts secondary frames consumed by the twin
	// before the switchover.
	AbsorbedFrames uint64
	// Switchovers counts data-plane failovers.
	Switchovers uint64
	// DeviceState is the device's final state.
	DeviceState iodevice.State
	// IOAvailability is the fraction of bins carrying device traffic,
	// counted from the first bin that saw any — the floor chaos
	// experiments assert on.
	IOAvailability float64
	// InjectedFaults counts executed fault injections.
	InjectedFaults int
	// FaultTrace lists the executed fault phases, one line each.
	FaultTrace string
	// Accounting is the frame-conservation ledger summed over every
	// egress port in the cell at the horizon (forwarded+dropped==sent).
	Accounting simnet.Accounting
	// INTObservations counts INT stacks terminated at pipeline egress
	// (zero unless cfg.INT).
	INTObservations uint64
	// PathChanges lists sink-observed path transitions; with INT on, the
	// entry at the device-facing sink is the failover as the data plane
	// itself measured it (GapNS spans the last pre-fail frame to the
	// first post-promotion frame).
	PathChanges []intnet.PathChange
}

// RunExperiment executes the Fig. 5 scenario: two vPLCs, one I/O
// device, an InstaPLC pipeline between them; the primary is killed
// mid-run. It is the straight-through form of the Harness.
func RunExperiment(cfg ExperimentConfig) ExperimentResult {
	h := NewHarness(cfg)
	h.AdvanceTo(h.Horizon())
	return h.Result()
}

// binAvailability is the fraction of non-empty bins from the first bin
// with traffic onward.
func binAvailability(bins []int) float64 {
	first := -1
	for i, n := range bins {
		if n > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	up := 0
	for _, n := range bins[first:] {
		if n > 0 {
			up++
		}
	}
	return float64(up) / float64(len(bins)-first)
}

func connect(c *plc.Controller, at time.Duration, cfg ExperimentConfig, arid uint32) {
	c.ConnectAt(sim.Time(at), plc.ConnectSpec{
		Device: frame.NewMAC(3),
		Req: profinet.ConnectRequest{
			ARID:           arid,
			CycleUS:        uint32(cfg.Cycle / time.Microsecond),
			WatchdogFactor: uint16(cfg.DeviceWatchdogFactor),
			InputLen:       8,
			OutputLen:      8,
		},
	})
}

func wire(e *sim.Engine, v1, v2 *plc.Controller, dev *iodevice.Device, pipe *dataplane.Pipeline, bps float64) []*simnet.Link {
	// Port assignment: 0=vplc1, 1=vplc2, 2=device.
	prop := 500 * sim.Nanosecond
	return []*simnet.Link{
		simnet.Connect(e, "v1-dp", v1.Host().Port(), pipe.Port(0), bps, prop),
		simnet.Connect(e, "v2-dp", v2.Host().Port(), pipe.Port(1), bps, prop),
		simnet.Connect(e, "dev-dp", dev.Host().Port(), pipe.Port(2), bps, prop),
	}
}

// RenderFigure5 renders the experiment as the paper's two panels: a
// packets-per-bin table plus sparklines.
func RenderFigure5(res ExperimentResult) string {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 5: InstaPLC switchover (bin=%v, fail at %v, switchover at %v)",
			res.Bin, res.FailAt, res.SwitchoverAt),
		"t(s)", "from vPLC1", "from vPLC2", "to I/O")
	for i := range res.ToIO {
		// Print every 4th bin to keep the table readable; the series
		// themselves stay full-resolution.
		if i%4 != 0 {
			continue
		}
		t.AddRow(
			fmt.Sprintf("%.2f", float64(i)*res.Bin.Seconds()),
			fmt.Sprintf("%d", res.FromVPLC1[i]),
			fmt.Sprintf("%d", res.FromVPLC2[i]),
			fmt.Sprintf("%d", res.ToIO[i]),
		)
	}
	return t.String() +
		"vPLC1 " + metrics.Sparkline(res.FromVPLC1) + "\n" +
		"vPLC2 " + metrics.Sparkline(res.FromVPLC2) + "\n" +
		"toIO  " + metrics.Sparkline(res.ToIO) + "\n"
}

// installPlainL2 programs the pipeline as a dumb learning switch via
// the control plane (the no-InstaPLC baseline).
func installPlainL2(pipe *dataplane.Pipeline) {
	macPort := make(map[frame.MAC]int)
	pipe.AddTable("l2", dataplane.PacketIn())
	pipe.OnPacketIn = func(ev dataplane.PacketInEvent) {
		macPort[ev.Fields.Src] = ev.Fields.InPort
		if p, ok := macPort[ev.Frame.Dst]; ok {
			pipe.Inject(p, ev.Frame)
			return
		}
		for i := 0; i < pipe.NumPorts(); i++ {
			if i != ev.Fields.InPort {
				pipe.Inject(i, pipe.Pool().Clone(ev.Frame))
			}
		}
		pipe.Pool().Put(ev.Frame)
	}
}
