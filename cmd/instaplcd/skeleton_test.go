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
// does not exist is a usage error (exit 2), a checkpoint of another
// kind or a -checkpoint file that cannot be written a failed run (1).
func TestSkeleton(t *testing.T) {
	clitest.Skeleton(t, run, "instaplcd", cli.Workers|cli.SimTelemetry)
	dir := t.TempDir()
	otherKind := filepath.Join(dir, "other.ckpt")
	if err := checkpoint.WriteFileAtomic(otherKind, func(w io.Writer) error {
		return checkpoint.Write(w, "no-such-kind", nil)
	}); err != nil {
		t.Fatal(err)
	}
	clitest.Fails(t, run, "instaplcd", "a -resume file that does not exist", []string{"-resume", filepath.Join(dir, "missing.ckpt")}, 2)
	clitest.Fails(t, run, "instaplcd", "a checkpoint of the wrong kind", []string{"-resume", otherKind}, 1)
	clitest.Fails(t, run, "instaplcd", "a -checkpoint file that cannot be written", []string{"-checkpoint", filepath.Join(dir, "missing", "run.ckpt")}, 1)
}
