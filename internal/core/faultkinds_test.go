package core

import (
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	"steelnet/internal/mrp"
)

// TestEveryFaultKindHasAScenarioTarget: every kind the fault grammar
// accepts names an object that a shipped scenario registers. A kind no
// scenario can target fails every real plan that uses it. The rows are
// also the target list an enumeration over scenarios draws from.
func TestEveryFaultKindHasAScenarioTarget(t *testing.T) {
	accepts := map[string]func(faults.Plan) error{
		"instaplc": func(p faults.Plan) error {
			cfg := instaplc.DefaultExperimentConfig()
			cfg.Faults = &p
			_, err := instaplc.BuildHarness(cfg)
			return err
		},
		"mrp": func(p faults.Plan) error {
			cfg := mrp.DefaultRingExperimentConfig()
			cfg.Faults = &p
			_, err := mrp.NewHarness(cfg)
			return err
		},
	}
	rows := map[faults.Kind]struct{ scenario, target string }{
		faults.KindLinkFlap:     {"instaplc", "dev-dp"},
		faults.KindLossBurst:    {"instaplc", "dp.2"},
		faults.KindCorruptBurst: {"instaplc", "io"},
		faults.KindSwitchCrash:  {"mrp", "sw2"},
		faults.KindHostStall:    {"instaplc", "vplc1"},
	}
	kinds := 0
	for k := faults.Kind(0); ; k++ {
		if back, ok := faults.KindFromString(k.String()); !ok || back != k {
			break
		}
		kinds++
		row, ok := rows[k]
		if !ok {
			t.Errorf("fault kind %v: no row names a scenario and a target for it", k)
			continue
		}
		// 0.1 is a valid magnitude for every kind: the kinds that read
		// one read a probability.
		ev := faults.Event{At: time.Millisecond, Kind: k, Target: row.target, Duration: time.Millisecond, Magnitude: 0.1}
		if err := accepts[row.scenario](faults.Plan{Name: ev.String(), Events: []faults.Event{ev}}); err != nil {
			t.Errorf("fault kind %v: scenario %s refuses %v: %v", k, row.scenario, ev, err)
		}
	}
	if kinds != len(rows) {
		t.Errorf("the grammar accepts %d fault kinds, the table has rows for %d", kinds, len(rows))
	}
}
