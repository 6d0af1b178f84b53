package reflection

import (
	"math"
	"testing"

	"steelnet/internal/sim"
)

// TestRestoreForgedConfigIsAnError hands the Fig. 4 sweep
// configurations no cell can be built from — what a command line may
// carry — and checks that the sweep reports each as an
// error before any cell runs, instead of panicking or sizing a cell
// from the claim.
func TestRestoreForgedConfigIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*Config)
	}{
		{"zero cycle", func(c *Config) { c.Cycle = 0 }},
		{"negative cycle", func(c *Config) { c.Cycle = -sim.Millisecond }},
		{"no cycles", func(c *Config) { c.Cycles = 0 }},
		{"no flows", func(c *Config) { c.Flows = 0 }},
		{"negative flows", func(c *Config) { c.Flows = -1 }},
		// One past the bound: a build without it runs quickly, where
		// 2^40 flows would exhaust the machine's memory.
		{"flows past the bound", func(c *Config) { c.Flows = maxFlows + 1 }},
		// One past the bound, and the largest int: Flows × (Cycles+2)
		// must not overflow on the way to the refusal.
		{"cycles past the bound", func(c *Config) { c.Cycles = maxSamples - 1 }},
		{"cycles at math.MaxInt", func(c *Config) { c.Cycles = math.MaxInt }},
		// A result slab of 2^40 delays per flow (math.MaxInt where int
		// is 32 bits): built, it would ask for 8 TiB before the first
		// event.
		{"2^40 cycles", func(c *Config) { c.Cycles = min(1<<40, math.MaxInt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := smallConfig()
			tc.forge(&forged)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("a sweep of a forged configuration panicked: %v", p)
				}
			}()
			if got, err := RunAllVariantsChecked(forged); err == nil || got != nil {
				t.Fatalf("RunAllVariantsChecked = %v, %v; want an error", got, err)
			}
		})
	}
}

// TestCheckConfigBoundsResultSlab: a cell's result slab holds
// Flows × (Cycles+2) delays and is allocated when the cell is built,
// so checkConfig admits exactly maxSamples of them and no more, for
// one flow and for the paper's 25.
func TestCheckConfigBoundsResultSlab(t *testing.T) {
	for _, flows := range []int{1, 25} {
		cfg := smallConfig()
		cfg.Flows = flows
		cfg.Cycles = maxSamples/flows - 2
		if err := checkConfig(cfg); err != nil {
			t.Errorf("%d flows × %d cycles, at the bound: %v", flows, cfg.Cycles, err)
		}
		cfg.Cycles++
		if err := checkConfig(cfg); err == nil {
			t.Errorf("%d flows × %d cycles, past the bound: no error", flows, cfg.Cycles)
		}
	}
}
