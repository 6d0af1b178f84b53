package tshist

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHistoryQuery sends arbitrary raw query strings to ServeQuery over
// a fixed recorder whose metric "m" has wrapped two of its three tiers.
// The contract: the status is 200, 400 or 404; a 200 body is valid
// JSON; and every point of a series answer has TNS >= since and, with
// step > 0, lies at least step after the point before it.
func FuzzHistoryQuery(f *testing.F) {
	rec := NewRecorder(8, 3, 4)
	feed(rec, "m", 100, func(i int) float64 { return float64(i) / 3 })
	rec.Append("odd", 0, math.NaN())
	rec.Append("odd", 1, math.Inf(-1))
	rec.Append(`we"ird/名`, 0, -0.5)
	for _, q := range []string{
		"",
		"metric=m",
		"metric=m&since=2000000000&step=100000000",
		"metric=m&format=prom&since=4000000000",
		"metric=odd",
		"metric=we%22ird%2F%E5%90%8D&step=1",
		"metric=nope",
		"metric=m&since=abc",
		"metric=m&step=9223372036854775807",
		"metric=m&since=-9223372036854775808&step=-1",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/history", nil)
		req.URL.RawQuery = raw
		w := httptest.NewRecorder()
		ServeQuery(w, req, rec, "run-1")
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound:
			return
		default:
			t.Fatalf("query %q: status %d", raw, w.Code)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("query %q: 200 body is not JSON: %s", raw, w.Body.Bytes())
		}
		q := req.URL.Query()
		if q.Get("metric") == "" || q.Get("format") == "prom" {
			return // a name list, or timestamps in float seconds
		}
		since, _ := parseNS(q.Get("since")) // a 200 means both parsed
		step, _ := parseNS(q.Get("step"))
		var body struct{ Points [][2]json.Number }
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		dec.UseNumber()
		if err := dec.Decode(&body); err != nil {
			t.Fatalf("query %q: %v", raw, err)
		}
		for i, p := range body.Points {
			tns, err := p[0].Int64()
			if err != nil || tns < since {
				t.Fatalf("query %q: point %d at %s, since %d", raw, i, p[0], since)
			}
			if i > 0 && step > 0 {
				if prev, _ := body.Points[i-1][0].Int64(); tns-prev < step {
					t.Fatalf("query %q: points %d and %d are %d ns apart, step %d", raw, i-1, i, tns-prev, step)
				}
			}
		}
	})
}
