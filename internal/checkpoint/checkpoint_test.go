package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	secs := []Section{
		{Name: "config", Data: []byte{1, 2, 3}},
		{Name: "progress", Data: []byte{}},
		{Name: "extra", Data: bytes.Repeat([]byte{0xab}, 300)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, "reflection", secs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if f.Version != FormatVersion || f.Kind != "reflection" {
		t.Fatalf("header = v%d kind %q", f.Version, f.Kind)
	}
	if len(f.Sections) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(f.Sections), len(secs))
	}
	for i, s := range secs {
		if f.Sections[i].Name != s.Name || !bytes.Equal(f.Sections[i].Data, s.Data) {
			t.Errorf("section %d mismatch: %q", i, f.Sections[i].Name)
		}
	}
	if _, ok := f.Section("missing"); ok {
		t.Error("Section(missing) = ok")
	}
}

func TestWriteDeterministic(t *testing.T) {
	secs := []Section{{Name: "a", Data: []byte("payload")}}
	var b1, b2 bytes.Buffer
	if err := Write(&b1, "k", secs); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, "k", secs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two writes of the same checkpoint differ")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "k", []Section{{Name: "s", Data: []byte("data")}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := Read(bytes.NewReader(good[:len(good)-cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range good {
			bad := bytes.Clone(good)
			bad[i] ^= 0x40
			_, err := Read(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("bit flip at offset %d accepted", i)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestReadRejectsVersionDrift(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "k", nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Patch the version field (right after magic) and re-seal the trailer
	// digest so only the version check can fire.
	raw[len(magic)] = FormatVersion + 1
	body := raw[:len(raw)-8]
	d := NewDigest()
	d.Bytes(body)
	e := &Encoder{buf: body}
	e.U64(d.Sum())
	_, err := Read(bytes.NewReader(e.Data()))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"Migration", "FormatVersion", "testdata"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("version error lacks %q instructions:\n%s", want, err)
		}
	}
}

func TestHarnessRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := []byte("encoded-config")
	if err := WriteHarness(&buf, "instaplc", cfg, 123456789, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	gotCfg, at, dig, err := ReadHarness(bytes.NewReader(buf.Bytes()), "instaplc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCfg, cfg) || at != 123456789 || dig != 0xdeadbeefcafe {
		t.Fatalf("round trip = (%q, %d, %#x)", gotCfg, at, dig)
	}
	if _, _, _, err := ReadHarness(bytes.NewReader(buf.Bytes()), "mrp"); err == nil {
		t.Fatal("wrong kind accepted")
	}
	// A progress section is exactly an instant and a digest.
	long := NewEncoder()
	long.I64(123456789)
	long.U64(0xdeadbeefcafe)
	long.U8(0)
	buf.Reset()
	if err := Write(&buf, "instaplc", []Section{{Name: "config", Data: cfg}, {Name: "progress", Data: long.Data()}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadHarness(&buf, "instaplc"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("progress section with a trailing byte: err = %v, want ErrCorrupt", err)
	}
}

// TestF64SliceBoundsItsCount: a count larger than the bytes behind it is
// a short read, reported before anything is sized from the count. (The
// forged count is kept to 128 MiB so that a decoder without the bound
// fails this test without endangering the machine; a u32 reaches 32 GiB.)
func TestF64SliceBoundsItsCount(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 24)
	e.F64(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDecoder(e.Data())
	v := d.F64Slice()
	runtime.ReadMemStats(&after)
	if v != nil || d.Err() == nil {
		t.Fatalf("forged count decoded to %d values, err %v", len(v), d.Err())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a forged count allocated %d bytes", got)
	}
}

// toyHarness is the smallest thing Replay can restore: its state is the
// instant it was advanced to plus its configured seed.
type toyHarness struct{ seed, now int64 }

func (h *toyHarness) AdvanceTo(t int64) { h.now = t }
func (h *toyHarness) Digest() uint64    { return uint64(h.seed*1000 + h.now) }

func TestReplay(t *testing.T) {
	save := func(cfg []byte, at int64, digest uint64) *bytes.Reader {
		var buf bytes.Buffer
		if err := WriteHarness(&buf, "toy", cfg, at, digest); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	e := NewEncoder()
	e.I64(7)
	cfg := e.Data()
	decode := func(c *Codec, seed *int64) { Int(c, seed) }
	build := func(seed int64) (*toyHarness, error) { return &toyHarness{seed: seed}, nil }

	h, err := Replay[int64](save(cfg, 42, 7042), "toy", decode, build)
	if err != nil || h.seed != 7 || h.now != 42 {
		t.Fatalf("Replay = %+v, %v", h, err)
	}
	if _, err := Replay[int64](save(cfg, 42, 7042), "other", decode, build); err == nil {
		t.Error("wrong kind restored")
	}
	// A config section that is short, or longer than what the walk
	// reads, is corrupt and never reaches build.
	for name, bad := range map[string][]byte{"short": cfg[:3], "trailing": append(bytes.Clone(cfg), 0)} {
		_, err = Replay[int64](save(bad, 42, 7042), "toy", decode, func(int64) (*toyHarness, error) {
			t.Errorf("%s config: build called", name)
			return nil, nil
		})
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad toy config") {
			t.Errorf("%s config: err = %v", name, err)
		}
	}
	boom := errors.New("boom")
	if _, err := Replay[int64](save(cfg, 42, 7042), "toy", decode, func(int64) (*toyHarness, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("build error not passed up: %v", err)
	}
	var div *DivergenceError
	if _, err := Replay[int64](save(cfg, 42, 1), "toy", decode, build); !errors.As(err, &div) || div.Replayed != 7042 || div.Recorded != 1 || div.At != 42 {
		t.Errorf("divergence: err = %v", err)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(-7)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.14159)
	e.Bytes([]byte{9, 8, 7})
	e.Str("héllo")
	e.F64Slice([]float64{1.5, -2.5})

	d := NewDecoder(e.Data())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U32(); v != 1<<30 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool order wrong")
	}
	if v := d.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.BytesVal(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Errorf("BytesVal = %v", v)
	}
	if v := d.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := d.F64Slice(); len(v) != 2 || v[0] != 1.5 || v[1] != -2.5 {
		t.Errorf("F64Slice = %v", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatalf("short U64 = %d err=%v", v, d.Err())
	}
	// Every later read must stay zero-valued with the original error.
	first := d.Err()
	if d.U8() != 0 || d.Str() != "" || d.Bool() {
		t.Error("reads after error not zero-valued")
	}
	if d.Err() != first {
		t.Error("error was replaced")
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
