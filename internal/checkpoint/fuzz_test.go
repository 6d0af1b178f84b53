package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"steelnet/internal/checkpoint"
)

// reseal overwrites the last eight bytes of raw with the content digest
// of what precedes them, so a mutated body still gets past the
// integrity check and into the container decoder.
func reseal(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	d := checkpoint.NewDigest()
	d.Bytes(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], d.Sum())
	return out
}

// FuzzCheckpointRead: the STEELCKP container decoder faces bytes from
// outside the program (a -resume file, a checkpoint handed to the
// gateway). It must never panic, and whatever it accepts it must have
// understood completely: writing the decoded file back reproduces the
// input byte for byte. Every input is tried as given and resealed.
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
				raw = reseal(data)
			}
			file, err := checkpoint.Read(bytes.NewReader(raw))
			if err != nil {
				continue
			}
			var back bytes.Buffer
			if err := checkpoint.Write(&back, file.Kind, file.Sections); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), raw) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones:\n in  %x\n out %x", len(raw), back.Len(), raw, back.Bytes())
			}
		}
	})
}
