package steelnetd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestServerObsPlaneEndpoints drives the PR 10 HTTP surface end to end:
// journal, per-run history (JSON and Prometheus range form), healthz
// fleet counters, and the steelnetd_* self-telemetry families.
func TestServerObsPlaneEndpoints(t *testing.T) {
	g, srv := testServer(t)
	id := postRun(t, srv.URL, RunSpec{ID: "obs-run", Run: testRun(1), Rules: testRules})
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}

	// Lifecycle journal: JSONL with the run's whole arc.
	resp, err := http.Get(srv.URL + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	jb := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("journal Content-Type %q", ct)
	}
	for _, want := range []string{`"event":"created"`, `"event":"started"`, `"event":"firing"`, `"event":"done"`} {
		if !strings.Contains(jb, want) {
			t.Errorf("journal lacks %s:\n%s", want, jb)
		}
	}

	// History: metric listing, then one series in both dialects.
	code, body := getBody(t, srv.URL+"/runs/"+id+"/history")
	if code != 200 || !strings.Contains(body, `"metrics":[`) {
		t.Fatalf("history listing: %d %s", code, body)
	}
	var listing struct {
		Run     string   `json:"run"`
		Metrics []string `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Run != id || len(listing.Metrics) == 0 {
		t.Fatalf("listing %+v", listing)
	}
	metric := listing.Metrics[0]
	q := url.Values{"metric": {metric}}.Encode()
	code, body = getBody(t, srv.URL+"/runs/"+id+"/history?"+q)
	if code != 200 || !strings.Contains(body, `"tier_fold":1`) || !strings.Contains(body, `"points":[[`) {
		t.Fatalf("history series: %d %s", code, body)
	}
	code, body = getBody(t, srv.URL+"/runs/"+id+"/history?"+q+"&format=prom")
	if code != 200 || !strings.Contains(body, `"resultType":"matrix"`) {
		t.Fatalf("history prom: %d %s", code, body)
	}
	code, _ = getBody(t, srv.URL+"/runs/"+id+"/history?"+url.Values{"metric": {"nosuch"}}.Encode())
	if code != http.StatusNotFound {
		t.Fatalf("unknown metric: %d, want 404", code)
	}
	code, _ = getBody(t, srv.URL+"/runs/nosuch/history")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run history: %d, want 404", code)
	}

	// Healthz now carries the fleet early-warning counters.
	code, body = getBody(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"queue_high_water":`) || !strings.Contains(body, `"journal_records":`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// A 404 should land in the 4xx class of the /runs/{id} route.
	getBody(t, srv.URL+"/runs/nosuch")

	// Self-telemetry on the daemon registry: RED families per route,
	// lifecycle transition counters, hub gauges, backend throughput.
	_, metrics := getBody(t, srv.URL+"/metrics")
	assertMetricLine(t, metrics, "steelnetd_http_requests_total", `route="/healthz"`, `class="2xx"`)
	assertMetricLine(t, metrics, "steelnetd_http_requests_total", `route="/runs/{id}"`, `class="4xx"`)
	assertMetricLine(t, metrics, "steelnetd_http_request_duration_ns", `route="/runs/{id}/history"`)
	assertMetricLine(t, metrics, "steelnetd_run_transitions_total", `state="done"`)
	assertMetricLine(t, metrics, "steelnetd_run_transitions_total", `state="running"`)
	assertMetricLine(t, metrics, "steelnetd_hub_queue_high_water")
	assertMetricLine(t, metrics, "steelnetd_hub_max_lag")
	assertMetricLine(t, metrics, "steelnetd_journal_records_total")
	assertMetricLine(t, metrics, "steelnetd_backend_published_total", `backend="kafka"`)
}

// assertMetricLine asserts the exposition has a sample line for family
// carrying every given label fragment.
func assertMetricLine(t *testing.T, exposition, family string, labels ...string) {
	t.Helper()
line:
	for _, ln := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(ln, family) || strings.HasPrefix(ln, "#") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(ln, l) {
				continue line
			}
		}
		return
	}
	t.Errorf("no %s sample with labels %v", family, labels)
}

// readAll drains an http.Response body (and closes it).
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestServerSSEReconnect pins connection churn: a fleet SSE client that
// disconnects and reconnects gets a fresh hello, and frames published
// after the reconnect reach the new connection.
func TestServerSSEReconnect(t *testing.T) {
	g, srv := testServer(t)

	first, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readSSE(t, first.Body, "hello"); !ok {
		t.Fatal("no hello on the first connection")
	}
	first.Body.Close() // client goes away mid-stream

	second, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if _, ok := readSSE(t, second.Body, "hello"); !ok {
		t.Fatal("no hello on the reconnect")
	}

	// A run started after the churn must stream to the survivor.
	id := postRun(t, srv.URL, RunSpec{ID: "churn", Run: testRun(1), Rules: testRules})
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSSE(t, second.Body, "tags"); !ok {
		t.Fatal("no tags frame on the reconnected stream")
	}
}

// stallWriter is a Flusher-capable ResponseWriter whose Write blocks
// until released — a slow SSE consumer under test control.
type stallWriter struct {
	hdr     http.Header
	release chan struct{}
}

func (s *stallWriter) Header() http.Header { return s.hdr }
func (s *stallWriter) WriteHeader(int)     {}
func (s *stallWriter) Flush()              {}
func (s *stallWriter) Write(p []byte) (int, error) {
	<-s.release
	return len(p), nil
}

// TestServeHubEventsSlowConsumerEviction pins the HTTP half of hub
// eviction: a handler stuck writing to a dead-slow client fills its
// queue, the hub drops then evicts it, and the handler unwinds cleanly
// once the socket drains.
func TestServeHubEventsSlowConsumerEviction(t *testing.T) {
	h := NewHub()
	h.SetLimits(1, 2) // queue depth 1, evict on the 2nd consecutive drop
	sw := &stallWriter{hdr: http.Header{}, release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveHubEvents(h, sw, httptest.NewRequest("GET", "/events", nil))
	}()
	// The handler subscribes before its hello write blocks on sw.
	waitFor(t, func() bool { return h.Subscribers() == 1 })

	// One frame fills the depth-1 queue; two more are consecutive drops,
	// which crosses the eviction threshold.
	f := Frame{Run: "r", Data: sseFrame("tags", []byte(`{}`))}
	for i := 0; i < 3; i++ {
		h.Publish(f)
	}
	if h.Evicted() != 1 || h.Dropped() != 2 {
		t.Fatalf("evicted=%d dropped=%d, want 1/2", h.Evicted(), h.Dropped())
	}

	close(sw.release) // the slow client finally drains
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not unwind after eviction")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after eviction", h.Subscribers())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerHistoryBackfillGapFree pins the backfill contract a
// dashboard relies on: the live SSE stream's seqs are contiguous from
// 1, and after the run the /history series holds a point for every
// publish slice — a client merging backfill with live frames misses
// nothing.
func TestServerHistoryBackfillGapFree(t *testing.T) {
	g, srv := testServer(t)

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, ok := readSSE(t, resp.Body, "hello"); !ok {
		t.Fatal("no hello")
	}

	id := postRun(t, srv.URL, RunSpec{ID: "backfill", Run: testRun(1)})
	data, ok := readSSE(t, resp.Body, "tags")
	if !ok {
		t.Fatal("no tags frame on the live stream")
	}
	var fr struct {
		Seq   uint64 `json:"seq"`
		SimNS int64  `json:"sim_ns"`
	}
	if err := json.Unmarshal([]byte(data), &fr); err != nil {
		t.Fatalf("tags data %q: %v", data, err)
	}
	const sliceNS = int64(50 * time.Millisecond)
	if fr.Seq < 1 || fr.SimNS != int64(fr.Seq)*sliceNS {
		t.Fatalf("live frame off the slice grid: %+v", fr)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}

	// The recorder must hold one point per slice: the 400 ms / 50 ms test
	// run publishes on a fixed 50 ms grid, so a client that backfills
	// [0, live seq) from /history and follows the stream from there sees
	// every instant exactly once.
	rec, ok := g.History(id)
	if !ok {
		t.Fatal("no history")
	}
	sawFull := false
	for _, name := range rec.Names() {
		pts, _, _ := rec.Query(name, 0, 0)
		if len(pts) == 0 || len(pts) > 8 {
			t.Fatalf("metric %q has %d points, want 1..8", name, len(pts))
		}
		// A metric may be born mid-run, but once recorded it must land on
		// every remaining slice through the 400 ms horizon — no gaps.
		for i, p := range pts {
			if want := pts[0].TNS + int64(i)*sliceNS; p.TNS != want {
				t.Fatalf("metric %q point %d at %d ns, want %d (gap in the grid)", name, i, p.TNS, want)
			}
		}
		if pts[len(pts)-1].TNS != 8*sliceNS {
			t.Fatalf("metric %q ends at %d ns, want %d", name, pts[len(pts)-1].TNS, 8*sliceNS)
		}
		sawFull = sawFull || len(pts) == 8
	}
	if !sawFull {
		t.Fatal("no metric covered all 8 slices")
	}
}

// stringWriter is a ResponseWriter that counts the calls reaching its
// WriteString and SetWriteDeadline.
type stringWriter struct {
	*httptest.ResponseRecorder
	strings, deadlines int
}

func (w *stringWriter) WriteString(s string) (int, error) {
	w.strings++
	return w.ResponseRecorder.WriteString(s)
}

func (w *stringWriter) SetWriteDeadline(time.Time) error {
	w.deadlines++
	return nil
}

// TestREDWrapForwardsWriteString: a handler behind the RED middleware
// that writes with io.WriteString must reach the connection's own
// WriteString, not a []byte copy of the body, and
// http.ResponseController must see through the wrapper.
func TestREDWrapForwardsWriteString(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	h := newHTTPMetrics(g).wrap("/body", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "steelnetd_up 1\n")
		if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
			t.Errorf("SetWriteDeadline through the wrapper: %v", err)
		}
	})
	w := &stringWriter{ResponseRecorder: httptest.NewRecorder()}
	h(w, httptest.NewRequest("GET", "/body", nil))
	if w.strings != 1 || w.deadlines != 1 || w.Body.String() != "steelnetd_up 1\n" {
		t.Fatalf("WriteString reached %d times, SetWriteDeadline %d times, body %q; want 1, 1 and the body",
			w.strings, w.deadlines, w.Body.String())
	}
}
