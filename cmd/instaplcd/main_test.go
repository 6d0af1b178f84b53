package main

import (
	"bytes"
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

// TestRunChaosResume runs the chaos sweep with cell-level
// checkpointing, then resumes from the completed file: every cell is
// skipped and the rendered table must come out identical.
func TestRunChaosResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
	var first, second, stderr bytes.Buffer
	if code := run(tiny("-chaos", "-workers", "1", "-checkpoint", ckpt), &first, &stderr); code != 0 {
		t.Fatalf("chaos run: exit %d, stderr:\n%s", code, stderr.String())
	}
	if first.Len() == 0 {
		t.Fatal("no chaos sweep output on stdout")
	}
	if code := run(tiny("-chaos", "-workers", "1", "-resume", ckpt), &second, &stderr); code != 0 {
		t.Fatalf("chaos resume: exit %d, stderr:\n%s", code, stderr.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed chaos sweep differs from original:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

func TestRunBadUsage(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")},
		tiny("-faults", "bogus-spec"),
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunUncarriableCycle: an IO cycle the PROFINET connect request
// cannot carry is the harness constructor's error, reported with exit 1
// before any simulated time passes.
func TestRunUncarriableCycle(t *testing.T) {
	for _, cycle := range []string{"500ns", "1500ns", "2h"} {
		var stdout, stderr bytes.Buffer
		if code := run(tiny("-cycle", cycle), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "connect request") || stdout.Len() != 0 {
			t.Errorf("run(-cycle %s) = %d, stdout %q, stderr %q; want 1, no figure and the error", cycle, code, stdout.String(), stderr.String())
		}
	}
}

// TestSweepTelemetryWorkerInvariant pins instaplcd -chaos's side of the sweep
// telemetry contract; the breach count is the parent tree's.
func TestSweepTelemetryWorkerInvariant(t *testing.T) {
	clitest.SweepWorkerInvariant(t, run, tiny("-chaos"), "3")
}
