package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
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

// TestRunRefusesCheckpointFlags: the Fig. 4 sweeps keep no
// checkpoint, so -checkpoint and -resume are unknown flags: exit 2,
// nothing on stdout, and no file written (neither FILE nor the
// FILE.jitter the jitter sweep once kept).
func TestRunRefusesCheckpointFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"both-sweeps", tiny()},
		{"jitter-only", tiny("-jitter-only")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			existing := filepath.Join(dir, "existing.ckpt")
			if err := os.WriteFile(existing, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := filepath.Join(dir, "fresh.ckpt")
			for _, args := range [][]string{
				append(c.args[:len(c.args):len(c.args)], "-checkpoint", fresh),
				append(c.args[:len(c.args):len(c.args)], "-resume", existing),
			} {
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
					t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
				}
				if msg := stderr.String(); !strings.HasPrefix(msg, "reflectbench: ") {
					t.Errorf("run(%v): stderr does not lead with %q:\n%s", args, "reflectbench: ", msg)
				}
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Errorf("run left %d entries in the directory (err %v), want only the existing file", len(entries), err)
			}
		})
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
	// A flow count past the harness bound, or more cycles than a cell's
	// result slab holds, is the sweep's error, refused before any cell
	// is built.
	for _, c := range []struct {
		args []string
		want string
	}{
		// 2^40 where int holds it, and the largest int: both parse.
		{tiny("-jitter-only", "-flows", strconv.Itoa(min(1<<40, math.MaxInt))), "flows, want 1 to"},
		{tiny("-jitter-only", "-flows", strconv.Itoa(math.MaxInt)), "flows, want 1 to"},
		{tiny("-delay-only", "-cycles", "16777215"), "round trips exceed"},
		{tiny("-jitter-only", "-flows", "25", "-cycles", "671087"), "round trips exceed"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q, stderr %q; want 1, no table and %q", c.args, code, stdout.String(), stderr.String(), c.want)
		}
	}
}

// TestRunChecksFlagsFirst: a bad -flows, or -delay-only with
// -jitter-only, is a usage error before any sweep runs: exit 2 and
// nothing on stdout.
func TestRunChecksFlagsFirst(t *testing.T) {
	for _, args := range [][]string{
		tiny("-flows", "0"),
		tiny("-delay-only", "-jitter-only"),
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want 2 and no table", args, code, stdout.String())
		}
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
