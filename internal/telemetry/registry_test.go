package telemetry

import (
	"strings"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("c", nil, "", func() uint64 { return 1 })
	r.Gauge("g", nil, "", func() float64 { return 1 })
	h := r.NewAtomicHistogram("h", nil, "", []float64{1, 2})
	h.Observe(2)
	if h.Count() != 1 || h.Sum() != 2 {
		t.Fatalf("unregistered histogram broken: count=%d sum=%d", h.Count(), h.Sum())
	}
	if r.Snapshot() != "" {
		t.Fatal("nil snapshot not empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if text, vs := r.Export(nil); text != nil || vs != nil {
		t.Fatalf("nil Export = %q, %v", text, vs)
	}
	if vs := r.AppendValues(nil); vs != nil {
		t.Fatalf("nil AppendValues = %v", vs)
	}
}

func TestLabelsString(t *testing.T) {
	if got := L().String(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	if got := L("node", "sw0", "port", "1").String(); got != `{node="sw0",port="1"}` {
		t.Fatalf("labels = %q", got)
	}
}

// Snapshot order must be (name, labels) regardless of registration
// order — components register from map iteration.
func TestSnapshotOrderIndependentOfRegistration(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		reg := []func(){
			func() { r.Counter("aaa_total", L("x", "1"), "", func() uint64 { return 1 }) },
			func() { r.Counter("aaa_total", L("x", "0"), "", func() uint64 { return 2 }) },
			func() { r.Gauge("zzz", nil, "", func() float64 { return 3 }) },
			func() { r.Counter("mmm_total", nil, "", func() uint64 { return 4 }) },
		}
		if reverse {
			for i := len(reg) - 1; i >= 0; i-- {
				reg[i]()
			}
		} else {
			for _, f := range reg {
				f()
			}
		}
		return r
	}
	a, b := build(false).Snapshot(), build(true).Snapshot()
	if a != b {
		t.Fatalf("snapshot depends on registration order:\n%s\nvs\n%s", a, b)
	}
	ai := strings.Index(a, `{x="0"}`)
	aj := strings.Index(a, `{x="1"}`)
	if !(ai >= 0 && aj > ai) {
		t.Fatalf("label order wrong:\n%s", a)
	}
	if !(strings.Index(a, "aaa_total") < strings.Index(a, "mmm_total") &&
		strings.Index(a, "mmm_total") < strings.Index(a, "zzz")) {
		t.Fatalf("name order wrong:\n%s", a)
	}
}

// Prometheus text-format escaping: label values escape backslash, quote
// and newline — and nothing else (Go's %q would also mangle tabs and
// UTF-8, which Prometheus treats as literal bytes).
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("path", `a\b`, "msg", "line1\nline2", "q", `say "hi"`, "raw", "täb\there"),
		"", func() uint64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `c_total{path="a\\b",msg="line1\nline2",q="say \"hi\"",raw="täb	here"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped series missing.\nwant %s\ngot:\n%s", want, out)
	}
	if strings.Count(out, "\n") != 2 { // TYPE line + the one series line
		t.Fatalf("escaping leaked a raw newline into the exposition:\n%q", out)
	}
}

func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", nil, "first\nsecond with \\ and \"quotes\"", func() uint64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// HELP escapes backslash and newline; quotes stay literal.
	want := `# HELP c_total first\nsecond with \\ and "quotes"`
	if !strings.Contains(out, want) {
		t.Fatalf("help line wrong.\nwant %s\ngot:\n%s", want, out)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewAtomicHistogram("lat", nil, "", []float64{0, 5, 10})
	// One sample per region: below-first (negative), exactly on each
	// bound, between bounds, and past the last bound.
	for _, v := range []int64{-1, 0, 2, 5, 7, 10, 11} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{le="0"} 2`,  // -1 and the exact 0
		`lat_bucket{le="5"} 4`,  // + 2 and the exact 5
		`lat_bucket{le="10"} 6`, // + 7 and the exact 10
		`lat_bucket{le="+Inf"} 7`,
		`lat_count 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewAtomicHistogram("lat", nil, "latency", []float64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	// le semantics: a sample equal to a bound lands in that bucket.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{le="10"} 2`,
		`lat_bucket{le="100"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 1122`,
		`lat_count 5`,
		"# TYPE lat histogram",
		"# HELP lat latency",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	for _, want := range []string{"lat_le_10", "lat_le_100", "lat_le_+Inf", "lat_count", "lat_sum"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-ascending bounds")
		}
	}()
	NewRegistry().NewAtomicHistogram("h", nil, "", []float64{2, 1})
}

func TestWritePrometheusCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.Counter("frames_total", L("node", "a"), "frames", func() uint64 { return n })
	r.Gauge("depth", nil, "queue depth", func() float64 { return 2.5 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP frames_total frames",
		"# TYPE frames_total counter",
		`frames_total{node="a"} 7`,
		"# TYPE depth gauge",
		"depth 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Func-backed: a later snapshot sees the new value without
	// re-registration.
	n = 8
	if !strings.Contains(r.Snapshot(), "8") {
		t.Fatal("counter not read live")
	}
}
