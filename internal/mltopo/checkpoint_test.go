package mltopo

import (
	"math"
	"testing"
	"time"

	"steelnet/internal/mlwork"
)

// TestRestoreForgedScenarioIsAnError hands checkScenario scenarios no
// cell can be built from — what a command line may carry — and checks that each is an error before anything is built,
// which NewHarness turns into a panic and the sweep into its error.
func TestRestoreForgedScenarioIsAnError(t *testing.T) {
	type forged struct {
		name  string
		forge func(*Scenario)
	}
	cases := []forged{
		{"no clients", func(sc *Scenario) { sc.Clients = 0 }},
		{"negative clients", func(sc *Scenario) { sc.Clients = -3 }},
		{"zero period", func(sc *Scenario) { sc.Profile.Period = 0 }},
		{"negative period", func(sc *Scenario) { sc.Profile.Period = -time.Millisecond }},
		{"negative inference time", func(sc *Scenario) { sc.Profile.InferCPU = -time.Microsecond }},
		{"negative result size", func(sc *Scenario) { sc.Profile.ResultBytes = -1 }},
		{"unknown kind", func(sc *Scenario) { sc.Kind = 7 }},
		{"more servers than a leaf has ports", func(sc *Scenario) {
			sc.Clients, sc.ClientsPerServer = 1<<14, 1
		}},
	}
	// A response body is one frame's zero tail, a uint32 count, which
	// only an int wider than 32 bits can exceed.
	if math.MaxInt > math.MaxUint32 {
		cases = append(cases, forged{"result past a zero tail", func(sc *Scenario) {
			sc.Profile.ResultBytes = min(1<<32, math.MaxInt)
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := DefaultScenario(LeafSpine, mlwork.ObjectIdentification, 4)
			tc.forge(&sc)
			if err := checkScenario(sc); err == nil {
				t.Fatal("checkScenario accepted it")
			}
		})
	}
	// The largest body a zero tail counts, or math.MaxInt where int is
	// 32 bits, is accepted.
	sc := DefaultScenario(LeafSpine, mlwork.ObjectIdentification, 4)
	sc.Profile.ResultBytes = min(math.MaxUint32, math.MaxInt)
	if err := checkScenario(sc); err != nil {
		t.Fatalf("a %d-byte result: %v", sc.Profile.ResultBytes, err)
	}
}

// TestFigure6ChecksClientsFirst: a client count past the bound is the
// sweep's error before any cell is built or run, however many cells
// come before it.
func TestFigure6ChecksClientsFirst(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("the sweep panicked: %v", p)
		}
	}()
	cfg := Figure6Config{Seed: 1, ClientCounts: []int{8, 300000}, Horizon: time.Microsecond, Workers: 1}
	got, err := RunFigure6Checked(cfg)
	if err == nil || got != nil {
		t.Fatalf("RunFigure6Checked = %v, %v; want an error", got, err)
	}
	if want := "mltopo: 300000 clients, want 1 to 2048"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}
