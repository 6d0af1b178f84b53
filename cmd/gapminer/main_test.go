package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the full main path in-process and asserts the
// figure reaches stdout with a clean exit.
func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings that must appear on stdout
	}{
		{
			name: "default",
			args: []string{"-seed", "1"},
			want: []string{"research gap"},
		},
		{
			name: "requirements",
			args: []string{"-seed", "1", "-requirements"},
			want: []string{"research gap"},
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

// TestRunBadUsage: an unknown flag exits 2 with nothing on stdout, and
// so does every flag gapminer has no use for (it moves no frames, so it
// has no workers, checkpoints or network telemetry to honour).
func TestRunBadUsage(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-no-such-flag"},
		{"-resume", filepath.Join(dir, "missing.ckpt")},
		{"-checkpoint", filepath.Join(dir, "fig1.ckpt")},
		{"-workers", "3"},
		{"-shards", "3"},
		{"-trace", filepath.Join(dir, "t")},
		{"-int", filepath.Join(dir, "i")},
		{"-slo", "loss:*<0.5"},
		{"-flightrec", filepath.Join(dir, "f")},
		{"-stats"},
		{"-obs-addr", "127.0.0.1:0"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
}
