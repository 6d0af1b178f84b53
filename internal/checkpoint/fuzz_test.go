package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/instaplc"
)

// FuzzCheckpointRead: a checkpoint is input from outside the program (a
// -resume file). The whole read path up to the build — the container,
// then the strict run-spec decode — must never panic, and whatever it
// accepts it must have understood completely: writing what it read
// back reproduces the input byte for byte. It stops before the harness
// is built, since a forged horizon would replay for hours. Every input
// is tried as given and resealed.
func FuzzCheckpointRead(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden corpus to seed from: %v", err)
	}
	for _, path := range golden {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, nil} {
			if raw == nil {
				if len(data) < 8 {
					return
				}
				raw = checkpoint.Reseal(data)
			}
			spec, at, digest, err := checkpoint.Read(bytes.NewReader(raw))
			if err != nil {
				continue
			}
			if _, err := instaplc.DecodeSpec(spec); err != nil {
				continue
			}
			var back bytes.Buffer
			if err := checkpoint.Write(&back, spec, at, digest); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), raw) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones:\n in  %x\n out %x", len(raw), back.Len(), raw, back.Bytes())
			}
		}
	})
}
