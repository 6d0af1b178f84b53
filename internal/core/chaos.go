package core

import (
	"fmt"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	"steelnet/internal/iodevice"
	"steelnet/internal/metrics"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
)

// ChaosConfig parameterizes RunChaosSweep: the Fig. 5 InstaPLC scenario
// bombarded with randomized-but-replayable fault plans of increasing
// intensity. Every cell derives its own seed from (Seed, cell index),
// generates its plan with faults.Generate, and runs on its own engine,
// so the sweep parallelizes like every other figure sweep — same table
// at any worker count.
type ChaosConfig struct {
	Seed uint64
	// Intensities is the fault-count ladder; each level runs Trials
	// cells with different derived seeds.
	Intensities []int
	Trials      int
	// Workers sizes the sweep pool (<=0: NumCPU).
	Workers int
	// Base is the scenario under attack (zero value: the Fig. 5
	// defaults). Its Seed and Faults fields are overwritten per cell.
	Base instaplc.ExperimentConfig
	// MeanOutage is the mean generated fault duration (default 100 ms —
	// long against the 4.8 ms watchdog, short against the horizon).
	MeanOutage time.Duration
}

// DefaultChaosConfig sweeps 0..12 faults, three trials each.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:        1,
		Intensities: []int{0, 2, 4, 8, 12},
		Trials:      3,
		Base:        instaplc.DefaultExperimentConfig(),
	}
}

// ChaosCell is one (intensity, trial) run.
type ChaosCell struct {
	Intensity, Trial int
	Seed             uint64
	Plan             string
	InjectedFaults   int
	Switchovers      uint64
	FailsafeEvents   uint64
	IOAvailability   float64
	DeviceState      iodevice.State
	// Accounting is the cell's frame-conservation ledger; chaos tests
	// assert Accounting.Check() == nil (forwarded+dropped==sent) per run.
	Accounting simnet.Accounting
	// INTObservations counts INT stacks sunk at pipeline egress (zero
	// unless cfg.Base.INT).
	INTObservations uint64
}

// chaosTargets lists the Fig. 5 scenario's registered fault targets
// (see instaplc.ExperimentConfig.Faults).
var chaosTargets = faults.GenConfig{
	Links: []string{"v1-dp", "v2-dp", "dev-dp"},
	Ports: []string{"vplc1", "vplc2", "io", "dp.0", "dp.1", "dp.2"},
	Hosts: []string{"vplc1", "vplc2"},
}

// chaosSeed derives a cell seed from the sweep seed and cell index
// (splitmix-style odd multiplier keeps nearby indices uncorrelated).
func chaosSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
}

// normalizeChaosConfig fills defaults so cell construction is
// deterministic regardless of where it happens (sweep or harness).
func normalizeChaosConfig(cfg ChaosConfig) ChaosConfig {
	if len(cfg.Intensities) == 0 {
		cfg.Intensities = DefaultChaosConfig().Intensities
	}
	if cfg.Trials <= 0 {
		cfg.Trials = DefaultChaosConfig().Trials
	}
	if cfg.Base.Horizon <= 0 {
		cfg.Base = instaplc.DefaultExperimentConfig()
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = 100 * time.Millisecond
	}
	return cfg
}

// ChaosCellConfig derives the instaplc configuration for cell i of the
// sweep: the base scenario with the cell's seed and its generated fault
// plan. The plan is a pure function of (cfg.Seed, i), so the cell can
// be rebuilt from a checkpoint that recorded only the config.
func ChaosCellConfig(cfg ChaosConfig, i int) instaplc.ExperimentConfig {
	cfg = normalizeChaosConfig(cfg)
	seed := chaosSeed(cfg.Seed, i)
	gen := chaosTargets
	gen.Horizon = cfg.Base.Horizon
	gen.Events = cfg.Intensities[i/cfg.Trials]
	gen.MeanOutage = cfg.MeanOutage
	plan := faults.Generate(seed, gen)
	ecfg := cfg.Base
	ecfg.Seed = seed
	ecfg.Faults = &plan
	return ecfg
}

// RunChaosSweepResumable runs the ladder and returns cells in
// (intensity, trial) order. cfg.Base's tracer, registry and INT
// collector are the sweep's telemetry sinks: sweep.RunCells decides
// which merge per cell and which force the ladder serial. With a path,
// completed (intensity, trial) cells persist there and are skipped when
// the sweep restarts.
func RunChaosSweepResumable(cfg ChaosConfig, path string) ([]ChaosCell, error) {
	cfg = normalizeChaosConfig(cfg)
	n := len(cfg.Intensities) * cfg.Trials
	ck := sweep.Checkpointer[ChaosCell]{Path: path, Kind: "chaos", Walk: WalkChaosCell}
	return sweep.RunCells(cfg.Workers, n, nil, ck, cfg.Base.Sinks, func(i int, s sweep.Sinks) ChaosCell {
		ecfg := ChaosCellConfig(cfg, i)
		ecfg.Sinks = s
		res := instaplc.RunExperiment(ecfg)
		return ChaosCell{
			Intensity:       cfg.Intensities[i/cfg.Trials],
			Trial:           i % cfg.Trials,
			Seed:            ecfg.Seed,
			Plan:            ecfg.Faults.String(),
			InjectedFaults:  res.InjectedFaults,
			Switchovers:     res.Switchovers,
			FailsafeEvents:  res.FailsafeEvents,
			IOAvailability:  res.IOAvailability,
			DeviceState:     res.DeviceState,
			Accounting:      res.Accounting,
			INTObservations: res.INTObservations,
		}
	})
}

// RunChaosSweep is RunChaosSweepResumable without a checkpoint.
func RunChaosSweep(cfg ChaosConfig) []ChaosCell {
	cells, _ := RunChaosSweepResumable(cfg, "") // no path: no file I/O, no error
	return cells
}

// RenderChaosSweep renders the ladder: availability and failover
// activity per cell, then a per-intensity availability summary.
func RenderChaosSweep(cells []ChaosCell) string {
	t := metrics.NewTable("Chaos sweep: InstaPLC cell under randomized fault plans",
		"faults", "trial", "seed", "injected", "switchovers", "failsafes", "IO avail", "device")
	for _, c := range cells {
		t.AddRow(
			formatInt(c.Intensity),
			formatInt(c.Trial),
			fmt.Sprintf("%#x", c.Seed),
			formatInt(c.InjectedFaults),
			fmt.Sprintf("%d", c.Switchovers),
			fmt.Sprintf("%d", c.FailsafeEvents),
			fmt.Sprintf("%.4f", c.IOAvailability),
			c.DeviceState.String(),
		)
	}
	s := t.String()
	sum := metrics.NewTable("per-intensity availability", "faults", "mean IO avail", "min IO avail")
	byIntensity := map[int][]float64{}
	order := []int{}
	for _, c := range cells {
		if _, seen := byIntensity[c.Intensity]; !seen {
			order = append(order, c.Intensity)
		}
		byIntensity[c.Intensity] = append(byIntensity[c.Intensity], c.IOAvailability)
	}
	for _, k := range order {
		vs := byIntensity[k]
		mean, min := 0.0, vs[0]
		for _, v := range vs {
			mean += v
			if v < min {
				min = v
			}
		}
		sum.AddRow(formatInt(k), fmt.Sprintf("%.4f", mean/float64(len(vs))), fmt.Sprintf("%.4f", min))
	}
	return s + sum.String()
}
