package tshist

import (
	"net/http"
	"strconv"
	"strings"

	"steelnet/internal/enc"
)

// ServeQuery answers a history query over rec for the run labelled
// runID. Without a metric parameter it lists the recorded metric names;
// with one it returns the series:
//
//	GET …/history                          {"run":…,"metrics":[…]}
//	GET …/history?metric=M&since=NS&step=NS
//	    {"run":…,"metric":M,"tier_fold":1,"points":[[t_ns,v],…]}
//	GET …/history?metric=M&format=prom     Prometheus query_range-style
//	    matrix JSON (timestamps in seconds, values as strings)
//
// since and step are simulated-time nanoseconds. The payload is
// rendered with the shared enc dialect, so identical recorder contents
// serve byte-identical responses. Both gateway and obs muxes mount
// this one implementation.
func ServeQuery(w http.ResponseWriter, r *http.Request, rec *Recorder, runID string) {
	if rec == nil {
		http.Error(w, "no history recorded for this run", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	w.Header().Set("Content-Type", "application/json")
	if metric == "" {
		names := rec.Names()
		n := len(`{"run":,"metrics":[]}`+"\n") + stringLen(runID)
		for _, name := range names {
			n += stringLen(name) + 1
		}
		b := append(make([]byte, 0, n), `{"run":`...)
		b = enc.AppendString(b, runID)
		b = append(b, `,"metrics":[`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = enc.AppendString(b, name)
		}
		b = append(b, "]}\n"...)
		w.Write(b) //nolint:errcheck // client went away
		return
	}
	since, err := parseNS(q.Get("since"))
	if err != nil {
		http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
		return
	}
	step, err := parseNS(q.Get("step"))
	if err != nil {
		http.Error(w, "bad step: "+err.Error(), http.StatusBadRequest)
		return
	}
	pts, tierFold, ok := rec.Query(metric, since, step)
	if !ok {
		http.Error(w, "unknown metric "+strconv.Quote(metric), http.StatusNotFound)
		return
	}
	if q.Get("format") == "prom" {
		w.Write(appendProm(runID, metric, pts)) //nolint:errcheck // client went away
		return
	}
	n := len(`{"run":,"metric":,"tier_fold":,"points":[]}`+"\n") + stringLen(runID) + stringLen(metric) + intLen(tierFold)
	for _, p := range pts {
		n += len(`[,],`) + intLen(p.TNS) + floatLen(p.V)
	}
	b := append(make([]byte, 0, n), `{"run":`...)
	b = enc.AppendString(b, runID)
	b = append(b, `,"metric":`...)
	b = enc.AppendString(b, metric)
	b = append(b, `,"tier_fold":`...)
	b = enc.AppendInt(b, tierFold)
	b = append(b, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = enc.AppendInt(b, p.TNS)
		b = append(b, ',')
		b = enc.AppendFloat(b, p.V)
		b = append(b, ']')
	}
	b = append(b, "]}\n"...)
	w.Write(b) //nolint:errcheck // client went away
}

// appendProm renders a Prometheus HTTP-API query_range matrix: one
// series whose labels carry the metric name and run, timestamps in
// (simulated) seconds, values as strings — loadable by Grafana-style
// tooling that speaks that dialect.
func appendProm(runID, metric string, pts []Point) []byte {
	const head = `{"status":"success","data":{"resultType":"matrix","result":[{"metric":{"__name__":`
	n := len(head+`,"run":},"values":[]}]}}`+"\n") + stringLen(metric) + stringLen(runID)
	for _, p := range pts {
		n += len(`[,""],`) + floatLen(float64(p.TNS)/1e9) + floatLen(p.V)
	}
	b := append(make([]byte, 0, n), head...)
	b = enc.AppendString(b, metric)
	b = append(b, `,"run":`...)
	b = enc.AppendString(b, runID)
	b = append(b, `},"values":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = enc.AppendFloat(b, float64(p.TNS)/1e9)
		b = append(b, ",\""...)
		b = enc.AppendFloat(b, p.V)
		b = append(b, "\"]"...)
	}
	b = append(b, "]}]}}\n"...)
	return b
}

// stringLen, intLen and floatLen are the lengths enc renders v at, so
// that a body can be sized before its first append. stringLen is exact
// for printable strings, the tag space's names; a string with other
// escapes only makes its body grow.
func stringLen(s string) int {
	return len(s) + 2 + strings.Count(s, `"`) + strings.Count(s, `\`)
}

func intLen(v int64) int {
	var b [24]byte
	return len(enc.AppendInt(b[:0], v))
}

func floatLen(v float64) int {
	var b [32]byte
	return len(enc.AppendFloat(b[:0], v))
}

// parseNS parses a nanosecond query parameter ("" = 0).
func parseNS(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
