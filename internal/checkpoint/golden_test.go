package checkpoint_test

// Golden checkpoint corpus: one small serialized checkpoint per kind a
// command restores, committed under testdata/. TestGolden asserts both that
// today's writer reproduces the committed bytes exactly and that
// today's reader can restore them. Any format change — container
// layout, config codecs, digest fold order — trips this test; that is
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

// TestV2FixtureRejected pins the migration failure mode: a committed
// format-v2 file (written before the sharded-execution digest change)
// must be rejected with ErrVersion and actionable migration text, never
// silently restored against v3 replay state.
func TestV2FixtureRejected(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-instaplc.ckpt"))
	if err != nil {
		t.Fatalf("missing v2 fixture (committed, never regenerated): %v", err)
	}
	f, err := checkpoint.Read(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("v2 file read as version %d without error", f.Version)
	}
	if !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"Migration", "FormatVersion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error lacks %q guidance:\n%v", want, err)
		}
	}
	if _, err := instaplc.Restore(bytes.NewReader(raw), nil, nil); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("harness restore of v2 file: err = %v, want ErrVersion", err)
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

// TestGoldenRejectsTrailingSectionBytes: the container refuses bytes
// after its last section; a section refuses bytes after its last field.
// One byte appended inside "config" or "progress" (container resealed, so
// only the section's own reader can object) is ErrCorrupt for every kind,
// before anything is built.
func TestGoldenRejectsTrailingSectionBytes(t *testing.T) {
	for _, c := range goldenCases() {
		raw, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		for _, section := range []string{"config", "progress"} {
			file, err := checkpoint.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for i := range file.Sections {
				if file.Sections[i].Name == section {
					file.Sections[i].Data = append(file.Sections[i].Data, 0)
				}
			}
			var grown bytes.Buffer
			if err := checkpoint.Write(&grown, file.Kind, file.Sections); err != nil {
				t.Fatal(err)
			}
			if grown.Len() != len(raw)+1 {
				t.Fatalf("%s: no %s section to grow", c.name, section)
			}
			if _, err := c.restore(&grown, sweep.Sinks{}); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s with a byte appended to its %s section: err = %v, want ErrCorrupt", c.name, section, err)
			}
		}
	}
}

// TestGoldenVersionPinned fails when FormatVersion changes without the
// corpus being regenerated: the committed files carry the version they
// were written with.
func TestGoldenVersionPinned(t *testing.T) {
	for _, c := range goldenCases() {
		raw, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatalf("missing golden corpus file: %v\n(generate with: go test ./internal/checkpoint -run TestGolden -update)", err)
		}
		f, err := checkpoint.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("reading %s: %v\n%s", goldenPath(c.name), err, goldenMigrationHelp())
		}
		if f.Version != checkpoint.FormatVersion {
			t.Fatalf("golden corpus %q is FormatVersion %d, code is %d.\n%s",
				c.name, f.Version, checkpoint.FormatVersion, goldenMigrationHelp())
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
