package enc

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestAppendFloatMatchesEncodingJSON pins the number dialect against
// encoding/json for every finite shape the tag space produces; the two
// must agree byte-for-byte or /history payloads would not round-trip
// through standard decoders.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.25, 100, 3000, 0.55, 1e-9, 1.5e9,
		123456789.123, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64,
	}
	for _, v := range cases {
		got := string(AppendFloat(nil, v))
		var back float64
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Fatalf("AppendFloat(%g) = %q: not valid JSON: %v", v, got, err)
		}
		if back != v {
			t.Errorf("AppendFloat(%g) = %q: round-trips to %g", v, got, back)
		}
	}
}

// TestAppendFloatNonFinite pins the clamp: JSON has no Inf/NaN, so they
// render as null rather than poisoning a payload.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, v)); got != "null" {
			t.Errorf("AppendFloat(%v) = %q, want null", v, got)
		}
	}
}

// TestAppendStringMatchesEncodingJSON checks the quoting agrees with
// encoding/json for plain ASCII names (the tag namespace); exotic
// escapes may differ in form but must stay valid JSON.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	plain := []string{"", "run-1", `steelnet_host_rx_total{node="io"}`, "int/sw.out0/press/1/mean_ns"}
	for _, s := range plain {
		got := string(AppendString(nil, s))
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Fatalf("AppendString(%q) = %q: not valid JSON: %v", s, got, err)
		}
		if back != s {
			t.Errorf("AppendString(%q) round-trips to %q", s, back)
		}
	}
	for _, s := range []string{"new\nline", "tab\there", "quote\"back\\slash", "ünïcode"} {
		got := AppendString(nil, s)
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("AppendString(%q) = %q: not valid JSON: %v", s, got, err)
		}
		if back != s {
			t.Errorf("AppendString(%q) round-trips to %q", s, back)
		}
	}
}

// TestAppendStringEscapesAsJSON pins the escapes strconv writes in Go
// syntax and encoding/json rejects: a control byte, \a, \v, DEL, an
// invalid UTF-8 byte and a non-printable rune above U+FFFF.
func TestAppendStringEscapesAsJSON(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"a\x01b", `"a\u0001b"`},
		{"\a\v", `"\u0007\u000b"`},
		{"\x7f", `"\u007f"`},
		{"\xff", `"\ufffd"`},
		{"x\xff\xfey", `"x\ufffdy"`}, // one run, one replacement
		{"\xff\ufffd", `"\ufffd` + "\ufffd" + `"`},
		{"\U000e0001", `"\udb40\udc01"`},
		{"\u00ad\u2028", `"\u00ad\u2028"`},
		{"\b\f", `"\b\f"`},
	} {
		got := string(AppendString(nil, c.in))
		if got != c.want {
			t.Errorf("AppendString(%q) = %s, want %s", c.in, got, c.want)
		}
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Errorf("AppendString(%q) = %s: not valid JSON: %v", c.in, got, err)
		}
	}
}

// TestAppendStringKeepsStrconvForm pins the bytes every pinned body is
// made of: for printable runes plus \t, \n and \r the output is
// strconv.Quote's, byte for byte.
func TestAppendStringKeepsStrconvForm(t *testing.T) {
	for _, s := range []string{"", "run-1", "tab\there\nnew\rline", `q"b\s`, "ünïcode ☃ 𝄞", `steelnet_host_rx_total{node="io"}`} {
		if got, want := string(AppendString(nil, s)), strconv.Quote(s); got != want {
			t.Errorf("AppendString(%q) = %s, strconv.Quote = %s", s, got, want)
		}
	}
}

// FuzzAppendString: for any input the output decodes with encoding/json
// to the input with each invalid UTF-8 run replaced by U+FFFD, and for
// printable-only input it is strconv.Quote's.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "run-1", "a\x01b\a\v\x7f", "\xff\xfe\ufffd", "\U000e0001\u2028", "tab\t\"\\"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := AppendString([]byte("x"), s)
		if got[0] != 'x' {
			t.Fatalf("AppendString overwrote its prefix")
		}
		var back string
		if err := json.Unmarshal(got[1:], &back); err != nil {
			t.Fatalf("AppendString(%q) = %s: not valid JSON: %v", s, got[1:], err)
		}
		if want := strings.ToValidUTF8(s, "\uFFFD"); back != want {
			t.Fatalf("AppendString(%q) decodes to %q, want %q", s, back, want)
		}
		if printable(s) {
			if want := strconv.Quote(s); string(got[1:]) != want {
				t.Fatalf("AppendString(%q) = %s, strconv.Quote = %s", s, got[1:], want)
			}
		}
	})
}

// printable reports whether s is valid UTF-8 made of printable runes,
// \t, \n and \r only.
func printable(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if !strconv.IsPrint(r) && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
	}
	return true
}

// TestAppendSSE pins the exact frame layout SSE clients parse.
func TestAppendSSE(t *testing.T) {
	got := string(AppendSSE(nil, "tags", []byte(`{"run":"r1"}`)))
	want := "event: tags\ndata: {\"run\":\"r1\"}\n\n"
	if got != want {
		t.Errorf("AppendSSE = %q, want %q", got, want)
	}
	// Appending extends, never truncates.
	b := []byte("x")
	if got := string(AppendSSE(b, "e", []byte("d"))); got != "xevent: e\ndata: d\n\n" {
		t.Errorf("AppendSSE onto prefix = %q", got)
	}
}

// TestIntegerAppends sanity-checks the integer wrappers.
func TestIntegerAppends(t *testing.T) {
	if got := string(AppendUint(nil, 18446744073709551615)); got != "18446744073709551615" {
		t.Errorf("AppendUint = %q", got)
	}
	if got := string(AppendInt(nil, -9223372036854775808)); got != "-9223372036854775808" {
		t.Errorf("AppendInt = %q", got)
	}
}

// TestAppendsAreAllocationFreeOnCapacity pins the package contract: with
// capacity available, no append allocates.
func TestAppendsAreAllocationFreeOnCapacity(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		b := buf[:0]
		b = AppendSSE(b, "tags", []byte("{}"))
		b = AppendFloat(b, 0.25)
		b = AppendString(b, "run-1")
		b = AppendUint(b, 42)
		b = AppendInt(b, -7)
		_ = b
	})
	if allocs != 0 {
		t.Errorf("encoder appends allocate %.1f/op with capacity available", allocs)
	}
}
