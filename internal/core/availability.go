package core

import (
	"time"

	"steelnet/internal/metrics"
	"steelnet/internal/sim"
)

// HAStrategy selects the §2.2 availability design under comparison.
type HAStrategy int

// Strategies.
const (
	// NoRedundancy: a single vPLC; every failure costs a full restart
	// and reconnection.
	NoRedundancy HAStrategy = iota
	// HardwarePair: the classic redundant pair with dedicated sync
	// links (50-300 ms switchover [98]).
	HardwarePair
	// InstaPLCPair: data-plane failover within the I/O watchdog budget.
	InstaPLCPair
)

// String names the strategy.
func (s HAStrategy) String() string {
	switch s {
	case NoRedundancy:
		return "no-redundancy"
	case HardwarePair:
		return "hardware-pair"
	case InstaPLCPair:
		return "instaplc"
	}
	return "unknown"
}

// HAStrategies lists all strategies in comparison order.
var HAStrategies = []HAStrategy{NoRedundancy, HardwarePair, InstaPLCPair}

// AvailabilityConfig parameterizes the year-long simulation.
type AvailabilityConfig struct {
	Seed uint64
	// Span is the simulated calendar time (default one year).
	Span time.Duration
	// MTBF is the mean time between vPLC/host failures (exponential).
	// Cloud-hosted vPLCs fail more often than hardened hardware: VM
	// migrations, host reboots, fabric incidents (§2.2, [46,66,72]).
	MTBF time.Duration
	// RestartTime is how long a failed vPLC takes to come back and be
	// eligible as a standby again.
	RestartTime time.Duration
	// HardwareSwitchover is the hardware pair's takeover time.
	HardwareSwitchover time.Duration
	// InstaPLCSwitchover is the data-plane takeover time.
	InstaPLCSwitchover time.Duration
}

// DefaultAvailabilityConfig matches the paper's framing: failures every
// ~10 days per instance, 2-minute restarts, 180 ms hardware takeover,
// 3.2 ms InstaPLC takeover (2 cycles at 1.6 ms).
func DefaultAvailabilityConfig() AvailabilityConfig {
	return AvailabilityConfig{
		Seed:               1,
		Span:               365 * 24 * time.Hour,
		MTBF:               10 * 24 * time.Hour,
		RestartTime:        2 * time.Minute,
		HardwareSwitchover: 180 * time.Millisecond,
		InstaPLCSwitchover: 3200 * time.Microsecond,
	}
}

// AvailabilityResult is one strategy's simulated year.
type AvailabilityResult struct {
	Strategy HAStrategy
	Report   metrics.AvailabilityReport
	Failures int
	// DoubleFailures counts failures that struck while the standby was
	// still restarting — the case redundancy cannot hide.
	DoubleFailures int
}

// RunAvailability simulates a year of failures for one strategy. The
// service is "down" whenever the I/O device is without fresh control
// data: for NoRedundancy that is the whole restart; for the pairs it is
// the switchover gap, plus the full restart when the second instance
// fails before the first is back.
func RunAvailability(cfg AvailabilityConfig, strategy HAStrategy) AvailabilityResult {
	if cfg.Span <= 0 {
		cfg.Span = DefaultAvailabilityConfig().Span
	}
	e := sim.NewEngine(cfg.Seed ^ uint64(strategy+1)<<32)
	r := &availRun{cfg: cfg, e: e, rng: e.RNG("failures"), tracker: metrics.NewAvailabilityTracker(0),
		res: AvailabilityResult{Strategy: strategy}, instances: 1, healthy: 1}
	if strategy != NoRedundancy {
		r.instances, r.healthy = 2, 2
	}
	r.scheduleFailure()
	e.RunUntil(sim.Time(cfg.Span))
	r.res.Report = r.tracker.Close(int64(cfg.Span))
	return r.res
}

// availRun is one RunAvailability year as the handler of its failures,
// and as restartEv of the restarts that follow them.
type availRun struct {
	cfg                AvailabilityConfig
	e                  *sim.Engine
	rng                *sim.RNG
	tracker            *metrics.AvailabilityTracker
	res                AvailabilityResult
	instances, healthy int
}

type restartEv availRun

func (r *restartEv) Fire() {
	if r.healthy < r.instances {
		r.healthy++
	}
}

func (r *availRun) scheduleFailure() {
	hazard := r.healthy
	if hazard < 1 {
		hazard = 1 // instances mid-restart cannot fail again
	}
	draw := r.rng.Exp(float64(r.cfg.MTBF) / float64(hazard))
	if draw > float64(r.cfg.Span) {
		draw = float64(r.cfg.Span) // clamp: beyond the horizon is beyond
	}
	r.e.After(time.Duration(draw), r)
}

func (r *availRun) Fire() {
	if r.e.Now() > sim.Time(r.cfg.Span) {
		return
	}
	r.res.Failures++
	r.healthy--
	now := int64(r.e.Now())
	if r.healthy >= 1 {
		// A standby takes over after the switchover gap.
		gap := r.cfg.RestartTime
		switch r.res.Strategy {
		case HardwarePair:
			gap = r.cfg.HardwareSwitchover
		case InstaPLCPair:
			gap = r.cfg.InstaPLCSwitchover
		}
		r.tracker.Observe(now, false)
		r.tracker.Observe(now+int64(gap), true)
	} else {
		// Nothing left: down until a restart completes.
		r.res.DoubleFailures++
		r.tracker.Observe(now, false)
		r.tracker.Observe(now+int64(r.cfg.RestartTime), true)
	}
	// The failed instance restarts and rejoins.
	r.e.After(r.cfg.RestartTime, (*restartEv)(r))
	r.scheduleFailure()
}

// RunAvailabilityComparison runs all strategies under one config.
func RunAvailabilityComparison(cfg AvailabilityConfig) []AvailabilityResult {
	out := make([]AvailabilityResult, 0, len(HAStrategies))
	for _, s := range HAStrategies {
		out = append(out, RunAvailability(cfg, s))
	}
	return out
}

// RenderAvailability renders the comparison as a table.
func RenderAvailability(results []AvailabilityResult) string {
	t := metrics.NewTable("Section 2.2: service availability over one simulated year",
		"strategy", "availability", "nines", "downtime/yr", "failures", "meets 99.9999%")
	for _, r := range results {
		t.AddRow(
			r.Strategy.String(),
			formatPct(r.Report.Availability),
			formatNines(r.Report.Nines()),
			r.Report.DowntimePerYear().Round(time.Millisecond).String(),
			formatInt(r.Failures),
			formatBool(r.Report.MeetsSixNines()),
		)
	}
	return t.String()
}
