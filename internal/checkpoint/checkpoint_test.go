package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	for _, spec := range [][]byte{nil, []byte(`{"Seed":1}`), bytes.Repeat([]byte{0xab}, 300)} {
		var buf bytes.Buffer
		if err := Write(&buf, spec, -123456789, 0xdeadbeefcafe); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, at, digest, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, spec) || at != -123456789 || digest != 0xdeadbeefcafe {
			t.Fatalf("round trip of a %d-byte spec = (%q, %d, %#x)", len(spec), got, at, digest)
		}
	}
	if err := Write(io.Discard, make([]byte, maxSize), 0, 0); err == nil {
		t.Fatal("Write took a spec no Read would accept")
	}
}

func TestWriteDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := Write(&b1, []byte("payload"), 7, 9); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, []byte("payload"), 7, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two writes of the same checkpoint differ")
	}
}

// Reseal recomputes raw's trailing content digest, so a mutated body
// gets past the integrity check to the checks behind it. It is
// exported to this package's external tests only.
func Reseal(raw []byte) []byte {
	out := bytes.Clone(raw)
	body := out[:len(out)-8]
	binary.LittleEndian.PutUint64(out[len(body):], contentDigest(body))
	return out
}

// endless is an input that never ends, like /dev/zero.
type endless struct{}

func (endless) Read(p []byte) (int, error) { return len(p), nil }

func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []byte("data"), 1, 2); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, _, _, err := Read(bytes.NewReader(good[:len(good)-cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range good {
			bad := bytes.Clone(good)
			bad[i] ^= 0x40
			if _, _, _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at offset %d accepted", i)
			}
		}
	})
	t.Run("spec length", func(t *testing.T) {
		// A resealed length that is not the spec's own: past the data,
		// or short of it, leaving bytes nothing accounts for.
		for _, n := range []uint32{5, 3, 1 << 31} {
			bad := bytes.Clone(good)
			binary.LittleEndian.PutUint32(bad[len(magic)+4:], n)
			if _, _, _, err := Read(bytes.NewReader(Reseal(bad))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("spec length %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("endless", func(t *testing.T) {
		if _, _, _, err := Read(endless{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestReadRejectsVersionDrift(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Patch the version field (right after magic) and reseal the trailer
	// so only the version check can fire.
	raw := buf.Bytes()
	raw[len(magic)] = FormatVersion + 1
	_, _, _, err := Read(bytes.NewReader(Reseal(raw)))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"Migration", "FormatVersion", "testdata"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error lacks %q instructions:\n%s", want, err)
		}
	}
}

func TestDigestDistinguishesFoldShapes(t *testing.T) {
	sum := func(fold func(d *Digest)) uint64 {
		d := NewDigest()
		fold(d)
		return d.Sum()
	}
	// Length prefixes keep ("ab","c") and ("a","bc") apart.
	a := sum(func(d *Digest) { d.Str("ab"); d.Str("c") })
	b := sum(func(d *Digest) { d.Str("a"); d.Str("bc") })
	if a == b {
		t.Error("digest conflates string boundaries")
	}
	if sum(func(d *Digest) { d.U64(1) }) == sum(func(d *Digest) { d.U64(2) }) {
		t.Error("digest conflates values")
	}
	if sum(func(d *Digest) { d.Bool(true) }) == sum(func(d *Digest) { d.Bool(false) }) {
		t.Error("digest conflates booleans")
	}
	// Same fold sequence must be stable.
	if sum(func(d *Digest) { d.F64(1.5); d.Bytes([]byte{1}) }) != sum(func(d *Digest) { d.F64(1.5); d.Bytes([]byte{1}) }) {
		t.Error("digest not deterministic")
	}
}

// TestWriteFileAtomic: a successful write replaces the file; a write
// callback that fails leaves the previous bytes intact and no temp file
// behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, put("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, put("second")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half a checkp")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("failed save left %q, want the previous checkpoint", got)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.ckpt"), put("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory holds %v, want only run.ckpt", entries)
	}
}
