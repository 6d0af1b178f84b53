//go:build linux && !race

package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/core"
)

// TestRunRefusesOversizedBuilds: a size whose build would exhaust the
// machine is the command's one-line error — exit 1, nothing on stdout —
// before anything is built, from the flags and from a forged campus
// checkpoint alike. Each case runs this test binary again as the
// command, with its address space capped at 4 GiB, so a build that is
// not refused fails the case with an out-of-memory crash instead of
// taking the machine, or this package's other tests, down with it. (The
// race detector reserves more address space than the cap: the file is
// not built with -race.)
func TestRunRefusesOversizedBuilds(t *testing.T) {
	if args := flag.Args(); len(args) > 0 { // the child
		limit := syscall.Rlimit{Cur: 4 << 30, Max: 4 << 30}
		if err := syscall.Setrlimit(syscall.RLIMIT_AS, &limit); err != nil {
			t.Fatal(err)
		}
		os.Exit(run(args, os.Stdout, os.Stderr))
	}
	forged := filepath.Join(t.TempDir(), "forged.ckpt")
	writeForgedCampus(t, forged, 200_000_000)

	const campusBound = "exceeds 1048576 nodes"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-clients", "300000", "-horizon", "1us"}, "mltopo: 300000 clients, want 1 to 2048"},
		{[]string{"-clients", "8,2000000000"}, "mltopo: 2000000000 clients, want 1 to 2048"},
		{[]string{"-campus", "-cells", "2", "-cell-switches", "200000000"}, campusBound},
		{[]string{"-campus", "-resume", forged}, campusBound},
	} {
		child := exec.Command(os.Args[0], append([]string{"-test.run=^TestRunRefusesOversizedBuilds$", "--"}, tc.args...)...)
		var stdout, stderr bytes.Buffer
		child.Stdout, child.Stderr = &stdout, &stderr
		err := child.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit 1; stderr:\n%.2000s", tc.args, err, stderr.String())
			continue
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "topobench: ") || !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line containing %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", tc.args, stdout.String())
		}
	}
}

// writeForgedCampus writes a valid campus checkpoint of a small run
// whose recorded configuration claims switchesPerCell switches a cell.
func writeForgedCampus(t *testing.T, path string, switchesPerCell int) {
	t.Helper()
	h, err := core.NewCampusHarness(core.CampusConfig{Horizon: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	config, at, digest, err := checkpoint.ReadHarness(&saved, core.CampusCheckpointKind)
	if err != nil {
		t.Fatal(err)
	}
	var cfg core.CampusConfig
	if err := checkpoint.Decode(core.WalkCampusConfig, config, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Topo.SwitchesPerCell = switchesPerCell
	err = checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		return checkpoint.WriteHarness(w, core.CampusCheckpointKind, checkpoint.Encode(core.WalkCampusConfig, &cfg), at, digest)
	})
	if err != nil {
		t.Fatal(err)
	}
}
