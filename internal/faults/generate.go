package faults

import (
	"fmt"
	"time"

	"steelnet/internal/sim"
)

// Generated durations are floored at minOutage, and loss and corruption
// burst probabilities are drawn from [0.01, maxLossRate).
const (
	minOutage   = time.Millisecond
	maxLossRate = 0.2
)

// GenConfig parameterizes randomized plan generation. Only kinds whose
// target list is non-empty are drawn; Events counts fault injections
// (recoveries don't count). Zero-valued knobs get usable defaults.
type GenConfig struct {
	// Horizon bounds injection times: every event's At is uniform in
	// [0, Horizon).
	Horizon time.Duration
	// Events is the number of fault events to generate.
	Events int
	// MeanOutage is the mean of the exponential fault-duration draw.
	// Generated faults always recover (chaos plans probe degradation
	// and recovery, not permanent loss); durations are clamped to
	// [1ms, Horizon].
	MeanOutage time.Duration

	// Target name pools, one per registry. Empty pools disable the
	// corresponding kinds.
	Links    []string
	Ports    []string
	Switches []string
	Hosts    []string
}

// Generate builds a randomized fault plan from seed. Same seed, same
// config ⇒ same plan, byte for byte: the draw uses its own sim.RNG so
// plan generation never perturbs (and is never perturbed by) the
// scenario's own random streams.
func Generate(seed uint64, cfg GenConfig) Plan {
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Second
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = cfg.Horizon / 20
	}

	pools := [numKinds][]string{
		KindLinkFlap:     cfg.Links,
		KindLossBurst:    cfg.Ports,
		KindCorruptBurst: cfg.Ports,
		KindSwitchCrash:  cfg.Switches,
		KindHostStall:    cfg.Hosts,
	}
	kinds := make([]Kind, 0, numKinds)
	for k, pool := range pools {
		if len(pool) > 0 {
			kinds = append(kinds, Kind(k))
		}
	}
	p := Plan{Name: fmt.Sprintf("chaos(seed=%d,n=%d)", seed, cfg.Events)}
	if len(kinds) == 0 || cfg.Events <= 0 {
		return p
	}

	rng := sim.NewRNG(seed)
	for i := 0; i < cfg.Events; i++ {
		k := kinds[rng.Intn(len(kinds))]
		pool := pools[k]
		ev := Event{
			Kind:   k,
			Target: pool[rng.Intn(len(pool))],
			At:     rng.DurationRange(0, cfg.Horizon),
		}
		ev.Duration = min(max(time.Duration(rng.Exp(float64(cfg.MeanOutage))), minOutage), cfg.Horizon)
		if k == KindLossBurst || k == KindCorruptBurst {
			ev.Magnitude = rng.Range(0.01, maxLossRate)
		}
		p.Events = append(p.Events, ev)
	}
	p.Sort()
	return p
}
