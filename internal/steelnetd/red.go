package steelnetd

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"steelnet/internal/telemetry"
)

// httpClasses are the status classes the RED metrics bucket responses
// into. Informational and redirect statuses count as successes — the
// gateway never emits them, and a probe cares about the error split.
var httpClasses = [...]string{"2xx", "4xx", "5xx"}

func classIdx(status int) int {
	switch {
	case status >= 500:
		return 2
	case status >= 400:
		return 1
	default:
		return 0
	}
}

// routeMetrics is one route's RED instruments: request counts split by
// status class, and a wall-latency histogram.
type routeMetrics struct {
	classes [len(httpClasses)]atomic.Uint64
	durNS   *telemetry.AtomicHistogram
}

// httpMetrics instruments the gateway's HTTP surface: every route wraps
// in a middleware that counts requests per status class, observes wall
// latency, and (when gateway tracing is on) records one request span
// anchored at the fleet's latest published simulated instant — which is
// what lets the Perfetto view show which simulation state a request
// observed.
type httpMetrics struct {
	g      *Gateway
	routes map[string]*routeMetrics
}

func newHTTPMetrics(g *Gateway) *httpMetrics {
	return &httpMetrics{g: g, routes: map[string]*routeMetrics{}}
}

// durBounds spans microseconds (cache-hit JSON) to seconds (slow SSE
// handshakes), in nanoseconds.
var durBounds = []float64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// wrap registers route's metric families on the hub registry and
// returns h wrapped in the recording middleware. route is the label
// value ("/runs/{id}" etc.), registered once per mux build.
func (m *httpMetrics) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := m.routes[route]
	if rm == nil {
		rm = &routeMetrics{}
		m.routes[route] = rm
		reg := m.g.Hub().Registry()
		rm.durNS = reg.NewAtomicHistogram("steelnetd_http_request_duration_ns",
			telemetry.L("route", route), "HTTP request wall latency, nanoseconds.", durBounds)
		for i, class := range httpClasses {
			c := &rm.classes[i]
			reg.Counter("steelnetd_http_requests_total",
				telemetry.L("route", route, "class", class),
				"HTTP requests served, by route and status class.", c.Load)
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		d := time.Since(start).Nanoseconds()
		rm.durNS.Observe(d)
		rm.classes[classIdx(sr.status)].Add(1)
		if m.g.trace != nil {
			m.g.trace.Add(telemetry.Event{T: m.g.latestSimNS.Load(),
				Kind: telemetry.KindHTTPRequest, Node: "http",
				Detail: route, Aux: d, Frame: uint64(sr.status)})
		}
	}
}

// statusRecorder captures the response status for the middleware. It
// passes Flush through so SSE handlers still see a Flusher — wrapping
// must not break streaming — and WriteString, so io.WriteString of a
// rendered body does not copy it into a []byte first. Unwrap lets
// http.ResponseController reach the connection underneath.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusRecorder) WriteString(str string) (int, error) {
	return io.WriteString(s.ResponseWriter, str)
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }
