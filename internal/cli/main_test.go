package cli

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Main's contract with a body: the shared flags arrive parsed in Env, a
// nil return ends the telemetry session and exits 0, a Usagef error
// exits 2, any other exits 1, and an artifact End cannot write exits 2 —
// each failure one "name: …" line on stderr.
func TestMainSkeleton(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		args   []string
		body   func(*Env, int) error
		code   int
		stderr string
	}{
		{"defaults", nil, func(env *Env, own int) error {
			if env.Workers != runtime.NumCPU() || own != 7 || env.Tel.Tracer != nil {
				t.Errorf("env = %+v, own flag %d", env, own)
			}
			return nil
		}, 0, ""},
		{"flags", []string{"-own", "9", "-shards", "2", "-stats"}, func(env *Env, own int) error {
			if env.Workers != 2 || own != 9 || env.Tel.Registry == nil {
				t.Errorf("env = %+v, own flag %d", env, own)
			}
			return nil
		}, 0, ""},
		{"usage error", nil, func(*Env, int) error { return Usagef("bad -own %d", 7) }, 2, "toy: bad -own 7\n"},
		{"run error", nil, func(*Env, int) error { return errors.New("boom") }, 1, "toy: boom\n"},
		{"unwritable artifact", []string{"-trace", filepath.Join(dir, "missing", "t.jsonl")},
			func(*Env, int) error { return nil }, 2, "toy: -trace: "},
		{"malformed value", []string{"-own", "x"}, nil, 2, `toy: invalid value "x" for flag -own`},
		{"help", []string{"-h"}, nil, 2, "Usage of toy:\n"},
	} {
		var out, errw bytes.Buffer
		code := Main("toy", Workers|SimTelemetry, c.args, &out, &errw, func(fs *flag.FlagSet) func(*Env) error {
			own := fs.Int("own", 7, "the command's own flag")
			return func(env *Env) error {
				if c.body == nil {
					t.Errorf("%s: body ran", c.name)
					return nil
				}
				return c.body(env, *own)
			}
		})
		if code != c.code || !strings.HasPrefix(errw.String(), c.stderr) || (c.stderr == "") != (errw.Len() == 0) {
			t.Errorf("%s: exit %d, stderr %q; want %d, %q…", c.name, code, errw.String(), c.code, c.stderr)
		}
		if c.body == nil && !strings.Contains(errw.String(), "-own int") {
			t.Errorf("%s: no usage text:\n%s", c.name, errw.String())
		}
	}
}

// A command takes only the shared groups it names: without them each
// group's flags are unknown (exit 2, body not run), and -cpuprofile is
// always there.
func TestMainSharedGroups(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-workers", "2"}, 2},
		{[]string{"-shards", "2"}, 2},
		{[]string{"-checkpoint", "x.ckpt"}, 2},
		{[]string{"-resume", "x.ckpt"}, 2},
		{[]string{"-trace", "t.jsonl"}, 2},
		{[]string{"-stats"}, 2},
		{[]string{"-slo", "loss:*<0.5"}, 2},
		{[]string{"-obs-addr", "127.0.0.1:0"}, 2},
		{[]string{"-cpuprofile", prof}, 0},
	} {
		var out, errw bytes.Buffer
		ran := false
		code := Main("bare", 0, c.args, &out, &errw, func(*flag.FlagSet) func(*Env) error {
			return func(*Env) error { ran = true; return nil }
		})
		if code != c.code || ran != (c.code == 0) {
			t.Errorf("%v: exit %d, body ran %v; want %d; stderr %q", c.args, code, ran, c.code, errw.String())
		}
	}
}
