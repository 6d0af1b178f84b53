package main

import (
	"io"
	"path/filepath"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/cli"
	"steelnet/internal/cli/clitest"
)

// TestSkeleton: instaplcd fails like every command, and -checkpoint
// and -resume, its own flags, fail the same way: a -resume file that
// does not exist is a usage error (exit 2), a checkpoint whose spec is
// no run spec or a -checkpoint file that cannot be written a failed
// run (1).
func TestSkeleton(t *testing.T) {
	clitest.Skeleton(t, run, "instaplcd", cli.Workers|cli.SimTelemetry)
	dir := t.TempDir()
	notASpec := filepath.Join(dir, "other.ckpt")
	if err := checkpoint.WriteFileAtomic(notASpec, func(w io.Writer) error {
		return checkpoint.Write(w, []byte("{}"), 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
	clitest.Fails(t, run, "instaplcd", "a -resume file that does not exist", []string{"-resume", filepath.Join(dir, "missing.ckpt")}, 2)
	clitest.Fails(t, run, "instaplcd", "a checkpoint whose spec is no run spec", []string{"-resume", notASpec}, 1)
	clitest.Fails(t, run, "instaplcd", "a -checkpoint file that cannot be written", []string{"-checkpoint", filepath.Join(dir, "missing", "run.ckpt")}, 1)
}
