package reflection

import (
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"steelnet/internal/checkpoint"
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
