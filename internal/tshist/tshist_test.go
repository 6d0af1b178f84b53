package tshist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// feed appends n samples of a synthetic series: t = i*50ms, v = f(i).
func feed(r *Recorder, name string, n int, f func(i int) float64) {
	for i := 1; i <= n; i++ {
		r.Append(name, int64(i)*50_000_000, f(i))
	}
}

func TestAppendAndQueryRaw(t *testing.T) {
	r := NewRecorder(8, 3, 4)
	feed(r, "m", 5, func(i int) float64 { return float64(i) })
	pts, fold, ok := r.Query("m", 0, 0)
	if !ok || fold != 1 {
		t.Fatalf("Query: ok=%v fold=%d", ok, fold)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	for i, p := range pts {
		if p.TNS != int64(i+1)*50_000_000 || p.V != float64(i+1) {
			t.Errorf("point %d = %+v", i, p)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4, 1, 4)
	feed(r, "m", 10, func(i int) float64 { return float64(i) })
	pts, _, _ := r.Query("m", 0, 0)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (ring capacity)", len(pts))
	}
	if pts[0].V != 7 || pts[3].V != 10 {
		t.Errorf("ring window = %v..%v, want 7..10", pts[0].V, pts[3].V)
	}
}

// TestFoldTiers pins the downsampling rule: every fold appends to tier
// k emit one tier-k+1 point, timestamped at the last folded sample,
// valued at the fixed-order mean.
func TestFoldTiers(t *testing.T) {
	r := NewRecorder(4, 3, 4)
	// 32 appends: tier0 keeps 29..32, tier1 keeps means of 4-blocks
	// (16 points emitted, ring keeps last 4), tier2 keeps means of
	// 16-blocks (2 points, ring keeps both).
	feed(r, "m", 32, func(i int) float64 { return float64(i) })

	// since=0 is older than tier0's window: tier1 should answer unless
	// it too starts after 0; walk lands on the coarsest that reaches
	// back furthest. Tier2's oldest point is t=16*50ms > 0, so the
	// coarsest non-empty tier (tier2) answers.
	pts, fold, _ := r.Query("m", 0, 0)
	if fold != 16 {
		t.Fatalf("fold = %d, want 16 (tier 2)", fold)
	}
	if len(pts) != 2 {
		t.Fatalf("tier2 points = %d, want 2", len(pts))
	}
	// Mean of 1..16 = 8.5 at t=16*50ms; mean of 17..32 = 24.5.
	if pts[0].V != 8.5 || pts[0].TNS != 16*50_000_000 {
		t.Errorf("tier2[0] = %+v, want {800000000 8.5}", pts[0])
	}
	if pts[1].V != 24.5 || pts[1].TNS != 32*50_000_000 {
		t.Errorf("tier2[1] = %+v, want {1600000000 24.5}", pts[1])
	}

	// A since inside tier0's window gets raw resolution.
	pts, fold, _ = r.Query("m", 29*50_000_000, 0)
	if fold != 1 || len(pts) != 4 {
		t.Fatalf("recent query: fold=%d len=%d, want 1/4", fold, len(pts))
	}

	// A since inside tier1's window but before tier0's gets tier1.
	pts, fold, _ = r.Query("m", 20*50_000_000, 0)
	if fold != 4 {
		t.Fatalf("mid query fold = %d, want 4", fold)
	}
	for _, p := range pts {
		if p.TNS < 20*50_000_000 {
			t.Errorf("point %+v before since", p)
		}
	}
}

// TestQueryStepThinning pins the deterministic keep-first thinning.
func TestQueryStepThinning(t *testing.T) {
	r := NewRecorder(64, 1, 4)
	feed(r, "m", 20, func(i int) float64 { return float64(i) })
	pts, _, _ := r.Query("m", 0, 150_000_000) // every 3rd 50ms point
	if len(pts) != 7 {
		t.Fatalf("thinned to %d points, want 7", len(pts))
	}
	for i, p := range pts {
		want := int64(1+3*i) * 50_000_000
		if p.TNS != want {
			t.Errorf("thinned[%d].TNS = %d, want %d", i, p.TNS, want)
		}
	}
}

func TestQueryUnknownMetric(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	if _, _, ok := r.Query("nope", 0, 0); ok {
		t.Error("Query on unknown metric reported ok")
	}
	if r.Samples("nope") != 0 {
		t.Error("Samples on unknown metric nonzero")
	}
}

// TestDeterministicReplay pins the core claim: two recorders fed the
// same stream answer every query identically, and a stream split at an
// arbitrary cut and fed into two recorders concatenates to the same
// retained state for windows after the cut.
func TestDeterministicReplay(t *testing.T) {
	mk := func() *Recorder { return NewRecorder(16, 3, 4) }
	a, b := mk(), mk()
	feed(a, "m", 100, func(i int) float64 { return float64(i * i % 97) })
	feed(b, "m", 100, func(i int) float64 { return float64(i * i % 97) })
	for _, since := range []int64{0, 40 * 50_000_000, 90 * 50_000_000} {
		pa, fa, _ := a.Query("m", since, 0)
		pb, fb, _ := b.Query("m", since, 0)
		if fa != fb || len(pa) != len(pb) {
			t.Fatalf("since=%d: fold %d vs %d, len %d vs %d", since, fa, fb, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Errorf("since=%d point %d: %+v vs %+v", since, i, pa[i], pb[i])
			}
		}
	}
}

func TestNamesFirstSeenOrder(t *testing.T) {
	r := NewRecorder(4, 1, 4)
	r.Append("b", 1, 1)
	r.Append("a", 1, 1)
	r.Append("b", 2, 2)
	names := r.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("Names = %v, want [b a]", names)
	}
	if r.Samples("b") != 2 {
		t.Errorf("Samples(b) = %d", r.Samples("b"))
	}
}

// TestServeQueryJSON drives the HTTP handler end to end.
func TestServeQueryJSON(t *testing.T) {
	r := NewRecorder(16, 2, 4)
	feed(r, "loss/sink0", 4, func(i int) float64 { return float64(i) / 8 })

	// Listing.
	rr := httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history", nil), r, "run-1")
	var listing struct {
		Run     string   `json:"run"`
		Metrics []string `json:"metrics"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing not JSON: %v\n%s", err, rr.Body.String())
	}
	if listing.Run != "run-1" || len(listing.Metrics) != 1 || listing.Metrics[0] != "loss/sink0" {
		t.Errorf("listing = %+v", listing)
	}

	// Series.
	rr = httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history?metric=loss%2Fsink0&since=100000000", nil), r, "run-1")
	var series struct {
		Metric   string       `json:"metric"`
		TierFold int64        `json:"tier_fold"`
		Points   [][2]float64 `json:"points"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &series); err != nil {
		t.Fatalf("series not JSON: %v\n%s", err, rr.Body.String())
	}
	if series.Metric != "loss/sink0" || series.TierFold != 1 || len(series.Points) != 3 {
		t.Errorf("series = %+v", series)
	}

	// Unknown metric is a 404; bad since is a 400.
	rr = httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history?metric=nope", nil), r, "run-1")
	if rr.Code != 404 {
		t.Errorf("unknown metric status = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history?metric=loss%2Fsink0&since=x", nil), r, "run-1")
	if rr.Code != 400 {
		t.Errorf("bad since status = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history", nil), nil, "run-1")
	if rr.Code != 404 {
		t.Errorf("nil recorder status = %d", rr.Code)
	}
}

// TestServeQueryParams walks ServeQuery's since/step/format grammar with
// values taken straight from a URL, including the extremes an int64
// parameter admits: a step near MaxInt64 used to overflow the thinning
// comparison and return every point instead of one.
func TestServeQueryParams(t *testing.T) {
	r := NewRecorder(16, 2, 4)
	feed(r, "m", 6, func(i int) float64 { return float64(i) }) // t = 50ms … 300ms
	const maxNS = "9223372036854775807"
	for _, tc := range []struct {
		query string
		code  int
		first int64 // TNS of the first point, 0 = none expected
		n     int
	}{
		{"metric=m", 200, 50_000_000, 6},
		{"metric=m&since=0&step=0", 200, 50_000_000, 6},
		{"metric=m&step=-5", 200, 50_000_000, 6},
		{"metric=m&step=100000000", 200, 50_000_000, 3},
		{"metric=m&since=100000000&step=100000000", 200, 100_000_000, 3},
		{"metric=m&since=125000000", 200, 150_000_000, 4},
		{"metric=m&since=-" + maxNS, 200, 50_000_000, 6},
		{"metric=m&since=300000000", 200, 300_000_000, 1},
		{"metric=m&since=" + maxNS, 200, 0, 0},
		{"metric=m&step=" + maxNS, 200, 50_000_000, 1},
		{"metric=m&step=9223372036854775000", 200, 50_000_000, 1},
		{"metric=m&since=150000000&step=" + maxNS, 200, 150_000_000, 1},
		{"metric=m&step=9223372036854775808", 400, 0, 0}, // out of int64 range
		{"metric=m&step=1e9", 400, 0, 0},
		{"metric=m&since=1.5", 400, 0, 0},
		{"metric=m&since=", 200, 50_000_000, 6},
		{"format=json&metric=m", 200, 50_000_000, 6}, // the first format wins; unknown ones mean native
		{"metric=nope&step=1", 404, 0, 0},
	} {
		for _, format := range []string{"", "&format=prom"} {
			rr := httptest.NewRecorder()
			ServeQuery(rr, httptest.NewRequest("GET", "/history?"+tc.query+format, nil), r, "run-1")
			if rr.Code != tc.code {
				t.Errorf("%s%s: status %d, want %d", tc.query, format, rr.Code, tc.code)
				continue
			}
			if tc.code != 200 {
				continue
			}
			// Both dialects carry [t, v] pairs; prom's t is in seconds.
			var native struct {
				Points [][2]float64 `json:"points"`
			}
			var prom struct {
				Data struct {
					Result []struct {
						Values [][2]any `json:"values"`
					} `json:"result"`
				} `json:"data"`
			}
			var n int
			var first float64
			if format == "" || strings.HasPrefix(tc.query, "format=") {
				if err := json.Unmarshal(rr.Body.Bytes(), &native); err != nil {
					t.Fatalf("%s: not JSON: %v\n%s", tc.query, err, rr.Body.String())
				}
				if n = len(native.Points); n > 0 {
					first = native.Points[0][0]
				}
			} else {
				if err := json.Unmarshal(rr.Body.Bytes(), &prom); err != nil {
					t.Fatalf("%s%s: not JSON: %v\n%s", tc.query, format, err, rr.Body.String())
				}
				if n = len(prom.Data.Result[0].Values); n > 0 {
					first = prom.Data.Result[0].Values[0][0].(float64) * 1e9
				}
			}
			if n != tc.n || int64(first+0.5) != tc.first {
				t.Errorf("%s%s: %d points from t=%v, want %d from t=%d", tc.query, format, n, first, tc.n, tc.first)
			}
		}
	}
}

// TestServeQueryProm checks the Prometheus range-style rendering parses
// and carries the labels tooling keys on.
func TestServeQueryProm(t *testing.T) {
	r := NewRecorder(16, 2, 4)
	feed(r, "m", 2, func(i int) float64 { return float64(i) })
	rr := httptest.NewRecorder()
	ServeQuery(rr, httptest.NewRequest("GET", "/history?metric=m&format=prom", nil), r, "mill")
	var prom struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Values [][2]any          `json:"values"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &prom); err != nil {
		t.Fatalf("prom payload not JSON: %v\n%s", err, rr.Body.String())
	}
	if prom.Status != "success" || prom.Data.ResultType != "matrix" || len(prom.Data.Result) != 1 {
		t.Fatalf("prom envelope = %+v", prom)
	}
	res := prom.Data.Result[0]
	if res.Metric["__name__"] != "m" || res.Metric["run"] != "mill" {
		t.Errorf("prom labels = %v", res.Metric)
	}
	if len(res.Values) != 2 {
		t.Errorf("prom values = %v", res.Values)
	}
	if _, ok := res.Values[0][1].(string); !ok {
		t.Errorf("prom value not a string: %v", res.Values[0][1])
	}
}

// TestAppendSteadyStateZeroAllocs pins the hot-path contract: once a
// metric's rings exist, Append allocates nothing.
func TestAppendSteadyStateZeroAllocs(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	r.Append("m", 0, 0) // warm: allocate the rings
	i := int64(0)
	allocs := testing.AllocsPerRun(10000, func() {
		i++
		r.Append("m", i*50_000_000, float64(i))
	})
	if allocs != 0 {
		t.Errorf("steady-state Append allocates %.2f/op, want 0", allocs)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so that an
// allocation count is ServeQuery's own.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestServeQueryBuildsEachBodyOnce pins the allocations of the three
// history routes over a run-shaped recorder (labelled names, 1,200
// slices, so a coarse tier answers): each body is sized before its
// first append, so it is one allocation, and so are the points. The
// rest is the query-string parse and the Content-Type header.
func TestServeQueryBuildsEachBodyOnce(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	var names []string
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf(`steelnet_port_tx_total{node="sw%d",port="1"}`, i))
	}
	names = append(names, "slo/breaches")
	for i := 1; i <= 1200; i++ {
		for j, name := range names {
			r.Append(name, int64(i)*50_000_000, float64(i*j)/7)
		}
	}
	for _, c := range []struct {
		query  string
		allocs float64
	}{
		{"", 4},
		{"?metric=slo%2Fbreaches", 7},
		{"?metric=slo%2Fbreaches&format=prom", 8},
	} {
		req := httptest.NewRequest("GET", "/history"+c.query, nil)
		w := discardWriter{http.Header{}}
		if got := testing.AllocsPerRun(50, func() { ServeQuery(w, req, r, "sim-0") }); got > c.allocs {
			t.Errorf("history%s: %.0f allocations, want at most %.0f", c.query, got, c.allocs)
		}
	}
}
