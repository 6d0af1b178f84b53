package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steelnet/internal/cli/clitest"
)

// tiny keeps simulated time short enough for the smoke tests while
// still crossing the failover (join at the default 200ms, fail at
// 400ms, horizon 800ms).
func tiny(extra ...string) []string {
	return append([]string{"-fail", "400ms", "-horizon", "800ms"}, extra...)
}

func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "default",
			args: tiny(),
			want: []string{"switchovers=1", "io-availability"},
		},
		{
			name: "baseline",
			args: tiny("-baseline"),
			want: []string{"switchovers=0"},
		},
		{
			name: "fault-plan",
			args: tiny("-faults", "hoststall:vplc1@400ms"),
			want: []string{"fault trace", "hoststall:vplc1@400ms"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatal("no figure output on stdout")
			}
			for _, w := range c.want {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("stdout missing %q:\n%s", w, stdout.String())
				}
			}
		})
	}
}

// TestRunCheckpointResume checkpoints a run periodically, then resumes
// from the final checkpoint; replay-anchored restore must reproduce
// the original figure byte for byte.
func TestRunCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var first, second, stderr bytes.Buffer
	if code := run(tiny("-checkpoint", ckpt, "-checkpoint-every", "200ms"), &first, &stderr); code != 0 {
		t.Fatalf("checkpoint run: exit %d, stderr:\n%s", code, stderr.String())
	}
	if code := run(tiny("-resume", ckpt), &second, &stderr); code != 0 {
		t.Fatalf("resume run: exit %d, stderr:\n%s", code, stderr.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output differs from original:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

// TestRunChaosRefusesCheckpoint: the chaos sweep keeps no checkpoint,
// so -chaos with -checkpoint or -resume is a usage error with one
// instaplcd: line, and no file is written or read.
func TestRunChaosRefusesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "existing.ckpt")
	if err := os.WriteFile(existing, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "chaos.ckpt")
	for _, args := range [][]string{
		tiny("-chaos", "-checkpoint", fresh),
		tiny("-chaos", "-resume", existing),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "instaplcd: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("run(%v): stderr = %q, want one instaplcd: line", args, msg)
		}
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("-chaos -checkpoint wrote %s (stat err %v)", fresh, err)
	}
}

// TestRunBadUsage: a flag value the command cannot honour as given
// exits 2 with nothing on stdout, never a run on a value the user did
// not ask for.
func TestRunBadUsage(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")},
		tiny("-faults", "bogus-spec"),
		tiny("-watchdog", "-5"),
		tiny("-watchdog", "0"),
		tiny("-checkpoint-every", "-1s"),
		tiny("-checkpoint-every", "0"),
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
}

// TestRunUncarriableCycle: an IO cycle the PROFINET connect request
// cannot carry is the harness constructor's error, reported with exit 1
// before any simulated time passes; under -chaos the sweep checks its
// base scenario once, before any cell runs.
func TestRunUncarriableCycle(t *testing.T) {
	for _, cycle := range []string{"500ns", "1500ns", "2h"} {
		for _, args := range [][]string{tiny("-cycle", cycle), tiny("-chaos", "-cycle", cycle)} {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "connect request") || stdout.Len() != 0 {
				t.Errorf("run(%v) = %d, stdout %q, stderr %q; want 1, no figure and the error", args, code, stdout.String(), stderr.String())
			}
		}
	}
}

// TestRunBadHorizon: a negative horizon is the harness constructor's
// error, reported with exit 1 before any simulated time passes.
func TestRunBadHorizon(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tiny("-horizon", "-1s"), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "horizon") || stdout.Len() != 0 {
		t.Errorf("run = %d, stdout %q, stderr %q; want 1, no figure and the error", code, stdout.String(), stderr.String())
	}
}

// TestSweepTelemetryWorkerInvariant pins instaplcd -chaos's side of the sweep
// telemetry contract; the breach count is the parent tree's.
func TestSweepTelemetryWorkerInvariant(t *testing.T) {
	clitest.SweepWorkerInvariant(t, run, tiny("-chaos"), "3")
}
