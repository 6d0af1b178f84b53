package telemetry

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry.* from the current formatters")

// goldenRegistry registers a fixed metric set in a deliberately unsorted
// order. It covers what the read path's ordering must get right:
//   - (name, labels) tuple order, which differs from flat-key order
//     ("a{…}" sorts before "a_b" as a tuple, after it as a string);
//   - duplicate (name, labels) keys, which keep registration order;
//   - one name carried by two kinds (HELP/TYPE come from the first);
//   - labelled and unlabelled histograms, escaped label values;
//   - late() registers after the first read, into the middle.
func goldenRegistry() (r *Registry, late func()) {
	r = NewRegistry()
	u := func(v uint64) func() uint64 { return func() uint64 { return v } }
	f := func(v float64) func() float64 { return func() float64 { return v } }

	r.Gauge("zz_depth", nil, "last by name", f(0.125))
	r.Counter("a_b_total", nil, "flat-key order would put this before a{…}", u(2))
	hl := r.NewAtomicHistogram("lat_ns", L("route", "/runs/{id}"), "latency", []float64{10, 100, 1e6})
	r.Counter("dup_total", L("k", "v"), "first duplicate", u(11))
	r.Counter("a", L("x", "1"), "tuple order puts this first", u(1))
	r.Counter("mid_total", L("port", "2"), "ports", u(22))
	r.Counter("dup_total", L("k", "v"), "second duplicate (help ignored)", u(12))
	r.Gauge("esc", L("path", `a\b`, "msg", "l1\nl2", "q", `say "hi"`), "help with \\ and\nnewline", f(-3.5))
	r.Counter("mid_total", L("port", "10"), "ports", u(210))
	h := r.NewAtomicHistogram("lat_ns", nil, "latency", []float64{10, 100, 1e6})
	r.Gauge("dup_total", L("k", "v"), "third duplicate, other kind", f(13.5))
	r.Counter("mid_total", nil, "ports", u(2000))
	r.Gauge("big", nil, "", f(1e21))

	for _, v := range []int64{-5, 10, 11, 100, 5000, 2_000_000} {
		h.Observe(v)
	}
	hl.Observe(42)

	return r, func() {
		r.Counter("mid_total", L("port", "1"), "ports", u(21))
		r.Counter("dup_total", L("k", "v"), "fourth duplicate, registered after a read", u(14))
		r.Gauge("a", nil, "before every other a row", f(0.5))
	}
}

func renderValues(vs []MetricValue) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%s|%s|%v\n", v.Name, v.Labels, v.Value)
	}
	return b.String()
}

// Export is WritePrometheus and Values over one walk, and every value's
// Key is the flat name consumers used to concatenate themselves.
func TestExportMatchesSeparateReads(t *testing.T) {
	r, late := goldenRegistry()
	late()
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	exported, vs := r.Export(nil)
	if string(exported) != prom.String() {
		t.Errorf("Export text differs from WritePrometheus:\n%s\nvs\n%s", exported, prom.String())
	}
	if fmt.Sprint(vs) != fmt.Sprint(r.Values()) {
		t.Errorf("Export values differ from Values:\n%v\nvs\n%v", vs, r.Values())
	}
	for _, v := range vs {
		if v.Key != v.Name+v.Labels {
			t.Errorf("Key = %q, want %q", v.Key, v.Name+v.Labels)
		}
	}
}

// The steelnetd hub registry is rendered by concurrent GET /metrics
// handlers while counters tick and histograms observe. Reads must not
// touch shared registry state; run under -race.
func TestConcurrentReadsWhileObserving(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	h := r.NewAtomicHistogram("lat_ns", L("route", "/x"), "", []float64{10, 100})
	r.Counter("zz_total", nil, "", n.Load)
	r.Counter("aa_total", nil, "", n.Load)
	var want strings.Builder
	if err := r.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(want.String(), "\n")

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				n.Add(1)
				h.Observe(i % 200)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if got := strings.Count(sb.String(), "\n"); got != lines {
					t.Errorf("render has %d lines, want %d:\n%s", got, lines, sb.String())
					return
				}
				if vs := r.Values(); len(vs) != 4 || vs[0].Key != "aa_total" {
					t.Errorf("Values = %v", vs)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// /metrics handlers render one registry from many goroutines, sharing
// its render-size hint. Every render, text or text plus values, must be
// the same bytes; run under -race.
func TestConcurrentRendersShareSizeHint(t *testing.T) {
	r, late := goldenRegistry()
	late()
	var want strings.Builder
	if err := r.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil || sb.String() != want.String() {
					t.Errorf("concurrent render differs (err %v):\n%s", err, sb.String())
					return
				}
				if text, _ := r.Export(nil); string(text) != want.String() {
					t.Errorf("concurrent Export differs:\n%s", text)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAtomicHistogramQuantile(t *testing.T) {
	h := (*Registry)(nil).NewAtomicHistogram("h", nil, "", []float64{10, 100, 1000})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile = %g", q)
	}
	for _, v := range []int64{1, 2, 3, 50, 5000} {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 10}, {0.6, 10}, {0.8, 100}, {1, 1000}, // +Inf bucket clamps to the last bound
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if q := (*Registry)(nil).NewAtomicHistogram("h", nil, "", nil).Quantile(0.5); q != 0 {
		t.Errorf("boundless Quantile = %g", q)
	}
}

// The three formatters must stay byte-identical to what the registry
// produced when it copied and stable-sorted its entries on every read
// (testdata/registry.* were written by that implementation).
func TestRegistryGolden(t *testing.T) {
	r, late := goldenRegistry()
	// Read once before the late registrations: the order must not be
	// frozen by the first read.
	var early strings.Builder
	if err := r.WritePrometheus(&early); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(early.String(), `port="1"`) {
		t.Fatal("late entry visible before registration")
	}
	late()

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ file, got string }{
		{"registry.prom", prom.String()},
		{"registry.snapshot", r.Snapshot()},
		{"registry.values", renderValues(r.Values())},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s differs from golden:\n--- got\n%s--- want\n%s", g.file, g.got, want)
		}
	}
}
