package mltopo

import (
	"bytes"
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/mlwork"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
)

// TestRestoreForgedScenarioIsAnError forges cell checkpoints whose
// recorded scenario no harness can be built from — the config section
// rewritten and the trailer recomputed, so the container is valid — and
// checks that Restore reports each as an error instead of panicking.
func TestRestoreForgedScenarioIsAnError(t *testing.T) {
	sc := DefaultScenario(LeafSpine, mlwork.ObjectIdentification, 4)
	sc.Horizon = 50 * time.Millisecond
	h := NewHarness(sc)
	h.AdvanceTo(h.Horizon())
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	config, at, digest, err := checkpoint.ReadHarness(&saved, CheckpointKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		forge func(*Scenario)
	}{
		{"no clients", func(sc *Scenario) { sc.Clients = 0 }},
		{"negative clients", func(sc *Scenario) { sc.Clients = -3 }},
		{"zero period", func(sc *Scenario) { sc.Profile.Period = 0 }},
		{"negative period", func(sc *Scenario) { sc.Profile.Period = -time.Millisecond }},
		{"negative inference time", func(sc *Scenario) { sc.Profile.InferCPU = -time.Microsecond }},
		{"negative result size", func(sc *Scenario) { sc.Profile.ResultBytes = -1 }},
		{"result past a zero tail", func(sc *Scenario) { sc.Profile.ResultBytes = 1 << 32 }},
		{"unknown kind", func(sc *Scenario) { sc.Kind = 7 }},
		{"more servers than a leaf has ports", func(sc *Scenario) {
			sc.Clients, sc.ClientsPerServer = simnet.MaxSwitchPorts, 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var forged Scenario
			if err := checkpoint.Decode(WalkScenario, config, &forged); err != nil {
				t.Fatal(err)
			}
			tc.forge(&forged)
			var file bytes.Buffer
			if err := checkpoint.WriteHarness(&file, CheckpointKind, checkpoint.Encode(WalkScenario, &forged), at, digest); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Restore of a forged scenario panicked: %v", p)
				}
			}()
			if got, err := Restore(&file, sweep.Sinks{}); err == nil || got != nil {
				t.Fatalf("Restore = %v, %v; want an error", got, err)
			}
		})
	}
}
