package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"steelnet/internal/cli/clitest"
)

// tiny keeps the sweeps small: 20 probe cycles, a single flow count,
// one worker.
func tiny(extra ...string) []string {
	return append([]string{"-cycles", "20", "-flows", "1", "-workers", "1"}, extra...)
}

func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{name: "both-sweeps", args: tiny()},
		{name: "delay-only", args: tiny("-delay-only")},
		{name: "jitter-only", args: tiny("-jitter-only")},
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
		})
	}
}

// TestRunCheckpointResume completes both sweeps into checkpoint files
// (FILE and FILE.jitter), then resumes: all cells are skipped and the
// tables must come out identical.
func TestRunCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig4.ckpt")
	var first, second, stderr bytes.Buffer
	if code := run(tiny("-checkpoint", ckpt), &first, &stderr); code != 0 {
		t.Fatalf("checkpoint run: exit %d, stderr:\n%s", code, stderr.String())
	}
	if code := run(tiny("-resume", ckpt), &second, &stderr); code != 0 {
		t.Fatalf("resume run: exit %d, stderr:\n%s", code, stderr.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output differs from original:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

func TestRunBadUsage(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")},
		tiny("-flows", "zero,flows"),
		tiny("-cycle", "0"),
		tiny("-cycle", "-1ms"),
		tiny("-cycles", "0"),
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// A flow count past the harness bound is the sweep's error, refused
	// before any cell is built.
	var stdout, stderr bytes.Buffer
	if code := run(tiny("-jitter-only", "-flows", "1099511627776"), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "flows, want 1 to") {
		t.Errorf("run(-flows 2^40) = %d, stderr %q; want 1 and the bound", code, stderr.String())
	}
}

// TestRunFiguresPresent asserts both Fig. 4 tables actually render:
// every variant appears in the delay table, the flow counts in the
// jitter table.
func TestRunFiguresPresent(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tiny(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestSweepTelemetryWorkerInvariant pins reflectbench's side of the sweep
// telemetry contract; the breach count is the parent tree's.
func TestSweepTelemetryWorkerInvariant(t *testing.T) {
	clitest.SweepWorkerInvariant(t, run, tiny(), "1")
}
