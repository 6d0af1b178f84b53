package mrp

import (
	"strings"
	"testing"
	"time"

	"steelnet/internal/faults"
)

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
