package checkpoint_test

// Golden checkpoint corpus: small serialized checkpoints of the runs a
// command restores, committed under testdata/. TestGolden asserts both that
// today's writer reproduces the committed bytes exactly and that
// today's reader can restore them. Any format change — container
// layout, run spec, digest fold order — trips this test; that is
// the point. To change the format deliberately:
//
//  1. bump checkpoint.FormatVersion,
//  2. add a migration path (or document the break) in DESIGN.md,
//  3. regenerate:  go test ./internal/checkpoint -run TestGolden -update
//
// Never regenerate to silence a failure you cannot explain: a golden
// diff without a code change you made on purpose means checkpoints in
// the field just became unreadable.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/core"
	"steelnet/internal/instaplc"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint corpus")

// restoreFunc is the one restore shape every kind exports.
type restoreFunc func(io.Reader, sweep.Sinks) (resumable, error)

// restoreAs adapts a kind's restore to the verifier's harness view.
func restoreAs[H resumable](f func(io.Reader, sweep.Sinks) (H, error)) restoreFunc {
	return func(r io.Reader, s sweep.Sinks) (resumable, error) { return f(r, s) }
}

// goldenCase builds a deterministic tiny harness, checkpointed at a
// fixed instant, and restores its committed form.
type goldenCase struct {
	name    string
	at      sim.Time
	build   func() resumable
	restore restoreFunc
}

func goldenCases() []goldenCase {
	chaosCfg := core.DefaultChaosConfig()
	chaosCfg.Base = smallInstaplcConfig()
	return []goldenCase{
		{
			name:    "instaplc",
			at:      sim.Time(200 * sim.Millisecond),
			build:   func() resumable { return instaplc.NewHarness(smallInstaplcConfig()) },
			restore: restoreAs(instaplc.RestoreWith),
		},
		{
			name:    "chaos",
			at:      sim.Time(200 * sim.Millisecond),
			build:   func() resumable { return instaplc.NewHarness(core.ChaosCellConfig(chaosCfg, 7)) },
			restore: restoreAs(instaplc.RestoreWith),
		},
	}
}

// TestV2FixtureRejected pins the migration failure mode: committed
// files of older formats (v2, written before the sharded-execution
// digest change; v3, the sectioned binary config) must be rejected with
// ErrVersion and actionable migration text, never silently restored.
func TestV2FixtureRejected(t *testing.T) {
	for _, name := range []string{"v2-instaplc.ckpt", "v3-instaplc.ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("missing %s fixture (committed, never regenerated): %v", name, err)
		}
		_, _, _, err = checkpoint.Read(bytes.NewReader(raw))
		if !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("%s: err = %v, want ErrVersion", name, err)
		}
		for _, want := range []string{"Migration", "FormatVersion"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: version error lacks %q guidance:\n%v", name, want, err)
			}
		}
		if _, err := instaplc.Restore(bytes.NewReader(raw), nil, nil); !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("harness restore of %s: err = %v, want ErrVersion", name, err)
		}
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden-"+name+".ckpt")
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			h := c.build()
			h.AdvanceTo(c.at)
			var buf bytes.Buffer
			if err := h.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			path := goldenPath(c.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden corpus file: %v\n(generate with: go test ./internal/checkpoint -run TestGolden -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("checkpoint bytes for %q no longer match the committed corpus (%d bytes written, %d committed).\n%s",
					c.name, buf.Len(), len(want), goldenMigrationHelp())
			}
			// The committed bytes must still restore: replay to the
			// recorded instant and re-verify the digest.
			h2, err := c.restore(bytes.NewReader(want), sweep.Sinks{})
			if err != nil {
				t.Fatalf("restoring committed corpus for %q: %v\n%s", c.name, err, goldenMigrationHelp())
			}
			if got, wantD := h2.Digest(), h.Digest(); got != wantD {
				t.Fatalf("restored digest %#x, want %#x", got, wantD)
			}
		})
	}
}

// TestGoldenRejectsTrailingSectionBytes: a restore accepts only the
// run spec exactly as Save writes it. Each row rewrites a committed
// file's spec (resealed, so only the spec decode can object) and must
// be ErrCorrupt before anything is built.
func TestGoldenRejectsTrailingSectionBytes(t *testing.T) {
	for _, row := range []struct {
		name   string
		mutate func(spec []byte) []byte
	}{
		{"bytes after the JSON", func(spec []byte) []byte { return append(spec, "{}"...) }},
		{"unknown field", func(spec []byte) []byte { return append([]byte(`{"Extra":1,`), spec[1:]...) }},
		{"reordered keys", func(spec []byte) []byte {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(spec, &m); err != nil {
				t.Fatal(err)
			}
			sorted, err := json.Marshal(m) // keys in alphabetical, not field, order
			if err != nil {
				t.Fatal(err)
			}
			return sorted
		}},
		{"extra whitespace", func(spec []byte) []byte {
			var out bytes.Buffer
			if err := json.Indent(&out, spec, "", " "); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}},
		{"key case", func(spec []byte) []byte { return bytes.Replace(spec, []byte(`"Seed"`), []byte(`"seed"`), 1) }},
	} {
		for _, c := range goldenCases() {
			raw, err := os.ReadFile(goldenPath(c.name))
			if err != nil {
				t.Fatal(err)
			}
			spec, at, digest, err := checkpoint.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			bad := row.mutate(bytes.Clone(spec))
			if bytes.Equal(bad, spec) {
				t.Fatalf("%s: %s left the spec as it was", c.name, row.name)
			}
			var forged bytes.Buffer
			if err := checkpoint.Write(&forged, bad, at, digest); err != nil {
				t.Fatal(err)
			}
			if _, err := c.restore(&forged, sweep.Sinks{}); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s with %s: err = %v, want ErrCorrupt", c.name, row.name, err)
			}
		}
	}
}

// TestGoldenVersionPinned fails when FormatVersion changes without the
// corpus being regenerated: the committed files carry the version they
// were written with, and Read refuses any other.
func TestGoldenVersionPinned(t *testing.T) {
	for _, c := range goldenCases() {
		raw, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatalf("missing golden corpus file: %v\n(generate with: go test ./internal/checkpoint -run TestGolden -update)", err)
		}
		if _, _, _, err := checkpoint.Read(bytes.NewReader(raw)); err != nil {
			t.Fatalf("reading %s: %v\n%s", goldenPath(c.name), err, goldenMigrationHelp())
		}
	}
}

func goldenMigrationHelp() string {
	return fmt.Sprintf(`The checkpoint format changed. If that was intentional:
  1. bump checkpoint.FormatVersion (currently %d) so old files are rejected loudly,
  2. document the change (DESIGN.md, "Checkpoint & replay"),
  3. regenerate the corpus:  go test ./internal/checkpoint -run TestGolden -update
If it was NOT intentional, find the encoder/digest change that caused it:
checkpoints written by released binaries can no longer be restored.`, checkpoint.FormatVersion)
}
