package reflection

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
)

// TestForgedSweepCheckpointIsCorrupt: a Fig. 4 sweep file whose first
// cell claims 128 MiB of delay samples it does not hold, sealed with a
// valid trailer, is what `reflectbench -resume` may be handed. It is
// ErrCorrupt, and nothing is sized from the claim. (A u32 count reaches
// 32 GiB; the forged one is kept small enough that a decoder without the
// bound fails this test without endangering the machine.)
func TestForgedSweepCheckpointIsCorrupt(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.Int(len(AllVariants())) // cells in the sweep
	e.Int(1)                  // cells recorded
	e.Int(0)                  // the first one
	e.Str("Base")
	e.Int(1)
	e.U32(1 << 24) // delay samples that follow: none do
	path := filepath.Join(t.TempDir(), "forged.ckpt")
	err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		return checkpoint.Write(w, "sweep/figure4-delay", []checkpoint.Section{{Name: "cells", Data: e.Data()}})
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = RunAllVariantsResumable(smallConfig(), path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("rejecting the forged file allocated %d bytes", got)
	}
}

// TestRestoreForgedConfigIsAnError forges cell checkpoints whose
// recorded configuration no harness can be built from — the config
// section rewritten and the trailer recomputed, so the container is
// valid — and checks that Restore reports each as an error instead of
// panicking or sizing a cell from the claim.
func TestRestoreForgedConfigIsAnError(t *testing.T) {
	h := NewHarness(smallConfig(), NewBase())
	h.AdvanceTo(sim.Time(sim.Millisecond)) // a short replay for the forgeries that build
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
		forge func(*Cell)
	}{
		{"zero cycle", func(c *Cell) { c.Cycle = 0 }},
		{"negative cycle", func(c *Cell) { c.Cycle = -sim.Millisecond }},
		{"no cycles", func(c *Cell) { c.Cycles = 0 }},
		{"no flows", func(c *Cell) { c.Flows = 0 }},
		{"negative flows", func(c *Cell) { c.Flows = -1 }},
		// One past the bound: a build without it replays quickly, where
		// 2^40 flows would exhaust the machine's memory.
		{"flows past the bound", func(c *Cell) { c.Flows = maxFlows + 1 }},
		// A result slab of 2^40 delays per flow: built, it would ask
		// for 8 TiB before the replay starts.
		{"cycles past the bound", func(c *Cell) { c.Cycles = 1 << 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var forged Cell
			if err := checkpoint.Decode(WalkCell, config, &forged); err != nil {
				t.Fatal(err)
			}
			tc.forge(&forged)
			var file bytes.Buffer
			if err := checkpoint.WriteHarness(&file, CheckpointKind, checkpoint.Encode(WalkCell, &forged), at, digest); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Restore of a forged configuration panicked: %v", p)
				}
			}()
			if got, err := Restore(&file, sweep.Sinks{}); err == nil || got != nil {
				t.Fatalf("Restore = %v, %v; want an error", got, err)
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
