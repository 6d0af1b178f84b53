//go:build linux && !race

package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestRunRefusesOversizedBuilds: a size whose build would exhaust the
// machine is the command's one-line error — exit 1, nothing on stdout —
// before anything is built. Each case runs this test binary again as the
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
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-clients", "300000", "-horizon", "1us"}, "mltopo: 300000 clients, want 1 to 2048"},
		{[]string{"-clients", "8,2000000000"}, "mltopo: 2000000000 clients, want 1 to 2048"},
		{[]string{"-campus", "-cells", "2", "-cell-switches", "200000000"}, "exceeds 1048576 nodes"},
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
