// Package clitest holds the assertions the experiment commands'
// in-process tests share. It imports testing and is linked into test
// binaries only.
package clitest

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/cli"
)

// Run is the shape of every command's testable main body.
type Run func(args []string, stdout, stderr io.Writer) int

func stdout(t *testing.T, run Run, args []string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run(%v): exit %d, stderr:\n%s", args, code, errw.String())
	}
	return out.String()
}

// Skeleton pins, at the command's own surface, how every command built
// on cli.Main fails: a usage error exits 2 and a failed run exits 1, each
// with one "name: …" report leading stderr and nothing on stdout. shared
// is the command's cli.Main groups: a flag of a group it lacks is
// unknown.
func Skeleton(t *testing.T, run Run, name string, shared cli.Shared) {
	t.Helper()
	dir := t.TempDir()
	otherKind := filepath.Join(dir, "other.ckpt")
	if err := checkpoint.WriteFileAtomic(otherKind, func(w io.Writer) error {
		return checkpoint.Write(w, "no-such-kind", nil)
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		args  []string
		group cli.Shared // needed for code; without it the flag is unknown
		code  int
	}{
		{"an unknown flag", []string{"-no-such-flag"}, 0, 2},
		{"a malformed -slo", []string{"-slo", "latency:*>1us"}, cli.SimTelemetry, 2},
		{"a negative -workers", []string{"-workers", "-1"}, cli.Workers, 2},
		{"a -resume file that does not exist", []string{"-resume", filepath.Join(dir, "missing.ckpt")}, cli.Checkpoints, 2},
		{"a checkpoint of the wrong kind", []string{"-resume", otherKind}, cli.Checkpoints, 1},
		{"a -checkpoint file that cannot be written", []string{"-checkpoint", filepath.Join(dir, "missing", "run.ckpt")}, cli.Checkpoints, 1},
	} {
		if shared&c.group != c.group {
			c.what, c.code = "a flag of a group it lacks, "+c.what, 2
		}
		var out, errw bytes.Buffer
		if code := run(c.args, &out, &errw); code != c.code {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", c.what, code, c.code, errw.String())
		}
		if !strings.HasPrefix(errw.String(), name+": ") {
			t.Errorf("%s: stderr does not lead with %q:\n%s", c.what, name+": ", errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed to stdout:\n%s", c.what, out.String())
		}
	}
}

// SweepWorkerInvariant drives a sweep command (args selects a small
// sweep) at -workers 1 and -workers 4 and asserts the telemetry
// contract of sweep.RunCells at the CLI surface: -trace, -int and
// -flightrec merge per-cell buffers, so stdout and all three artifacts
// are byte-identical at any worker count, and -int carries no reorders
// invented at cell boundaries; -stats and -slo feed live sinks, run
// serially whatever -workers says, and the unattainable
// 'latency:*<1us' objective records exactly breaches breaches.
func SweepWorkerInvariant(t *testing.T, run Run, args []string, breaches string) {
	t.Helper()
	at := func(workers string, extra ...string) string {
		return stdout(t, run, append(append(append([]string(nil), args...), "-workers", workers), extra...))
	}

	flags := []string{"-trace", "-int", "-flightrec"}
	var outs [2]string
	var files [2]map[string][]byte
	for k, workers := range []string{"1", "4"} {
		dir := t.TempDir()
		var extra []string
		for _, flag := range flags {
			extra = append(extra, flag, filepath.Join(dir, flag))
		}
		outs[k] = at(workers, extra...)
		files[k] = map[string][]byte{}
		for _, flag := range flags {
			b, err := os.ReadFile(filepath.Join(dir, flag))
			if err != nil || len(b) == 0 {
				t.Fatalf("%s artifact at -workers %s: %d bytes, err %v", flag, workers, len(b), err)
			}
			files[k][flag] = b
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between -workers 1 and 4:\n--- 1\n%s--- 4\n%s", outs[0], outs[1])
	}
	for _, flag := range flags {
		if !bytes.Equal(files[0][flag], files[1][flag]) {
			t.Errorf("%s artifact differs between -workers 1 and 4", flag)
		}
	}
	if bytes.Contains(files[0]["-int"], []byte(`"reordered"`)) {
		t.Error("-int export reports reordering across cell boundaries")
	}

	live := []struct {
		flags []string
		want  string
	}{
		{[]string{"-stats"}, "sim_arena_chunks"},
		{[]string{"-slo", "latency:*<1us"}, "slo: " + breaches + " breach(es) recorded\n"},
	}
	for _, c := range live {
		one, four := at("1", c.flags...), at("4", c.flags...)
		if one != four {
			t.Errorf("%v: stdout differs between -workers 1 and 4", c.flags)
		}
		if !strings.Contains(one, c.want) {
			t.Errorf("%v: stdout missing %q:\n%s", c.flags, c.want, one)
		}
	}
}
