package mrp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/faults"
	"steelnet/internal/sweep"
)

// TestRestoreForgedPlanIsAnError forges a ring checkpoint whose recorded
// fault plan names a target the scenario does not register — the config
// section rewritten and the trailer recomputed, so the container is
// valid — and checks that Restore reports it as an error instead of
// panicking while building the harness.
func TestRestoreForgedPlanIsAnError(t *testing.T) {
	cfg := DefaultRingExperimentConfig()
	cfg.Horizon = 100 * time.Millisecond
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(h.Horizon())
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	config, at, digest, err := checkpoint.ReadHarness(&saved, CheckpointKind)
	if err != nil {
		t.Fatal(err)
	}
	var forged RingExperimentConfig
	if err := checkpoint.Decode(WalkRingConfig, config, &forged); err != nil {
		t.Fatal(err)
	}
	forged.Faults = &faults.Plan{Name: "forged", Events: []faults.Event{
		{At: 50 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "ghost"},
	}}
	var file bytes.Buffer
	if err := checkpoint.WriteHarness(&file, CheckpointKind, checkpoint.Encode(WalkRingConfig, &forged), at, digest); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Restore of a forged plan panicked: %v", p)
		}
	}()
	got, err := Restore(&file, sweep.Sinks{})
	if err == nil || got != nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Restore = %v, %v; want an error naming ghost", got, err)
	}
}

func TestNewHarnessRejectsUnknownTarget(t *testing.T) {
	cfg := DefaultRingExperimentConfig()
	cfg.Faults = &faults.Plan{Events: []faults.Event{{At: time.Millisecond, Kind: faults.KindLinkFlap, Target: "ghost"}}}
	if h, err := NewHarness(cfg); err == nil || h != nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("NewHarness = %v, %v; want an error naming ghost", h, err)
	}
	if _, err := RunRingExperiment(cfg); err == nil {
		t.Fatal("RunRingExperiment accepted a plan naming an unknown target")
	}
}
