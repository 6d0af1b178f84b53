package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
	"steelnet/internal/tshist"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestEndpoints(t *testing.T) {
	b := NewBroker()
	srv := httptest.NewServer(NewMux(b))
	defer srv.Close()

	// Before any publish: empty snapshot, no shard profile.
	if code, body, _ := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, `"seq":0`) {
		t.Fatalf("healthz before publish: %d %q", code, body)
	}
	if code, body, _ := get(t, srv.URL+"/shards"); code != 404 || !strings.Contains(body, "no shard profile") {
		t.Fatalf("shards before publish: %d %q", code, body)
	}
	if code, body, _ := get(t, srv.URL+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _, _ := get(t, srv.URL+"/nosuch"); code != 404 {
		t.Fatalf("unknown path served: %d", code)
	}

	n := uint64(42)
	reg := telemetry.NewRegistry()
	reg.Counter("test_events_total", nil, "events", func() uint64 { return n })
	profile := map[string]int{"shards": 4}
	if err := b.Publish(reg, profile, 12345); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "test_events_total 42") {
		t.Fatalf("metrics: %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	code, body, hdr = get(t, srv.URL+"/shards")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("shards: %d %q", code, hdr.Get("Content-Type"))
	}
	var prof map[string]int
	if err := json.Unmarshal([]byte(body), &prof); err != nil || prof["shards"] != 4 {
		t.Fatalf("shards body %q: %v", body, err)
	}
	if code, body, _ := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, `"sim_ns":12345`) {
		t.Fatalf("healthz after publish: %d %q", code, body)
	}
	if code, body, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("pprof cmdline: %d", code)
	}

	// A profile-less publish keeps /metrics fresh and carries the last
	// profile forward rather than blanking /shards.
	n = 43
	if err := b.Publish(reg, nil, 12400); err != nil {
		t.Fatal(err)
	}
	if _, body, _ := get(t, srv.URL+"/metrics"); !strings.Contains(body, "test_events_total 43") {
		t.Fatalf("metrics stale after republish: %q", body)
	}
	if code, body, _ := get(t, srv.URL+"/shards"); code != 200 || !strings.Contains(body, `"shards":4`) {
		t.Fatalf("shards after profile-less publish: %d %q", code, body)
	}
}

// TestPublishRendersOnce: every snapshot is WritePrometheus's text byte
// for byte, also when values grow past the previous render's length,
// and a warm Publish in which no value moved makes two allocations —
// the text, rendered once at its final size, and the Snapshot — reading
// its values into the broker's kept slice.
func TestPublishRendersOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	var n uint64
	for i := 0; i < 64; i++ {
		reg.Counter("test_events_total", telemetry.L("port", strconv.Itoa(i)), "events", func() uint64 { return n * uint64(i) })
		reg.Gauge("test_level", telemetry.L("port", strconv.Itoa(i)), "level", func() float64 { return float64(n) / 3 })
	}
	b := NewBroker()
	for _, v := range []uint64{0, 9, 10, 12345, 1 << 40, 7} {
		n = v
		if err := b.Publish(reg, nil, int64(v)); err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := reg.WritePrometheus(&want); err != nil {
			t.Fatal(err)
		}
		if got := b.Current().Metrics; got != want.String() {
			t.Fatalf("n=%d: snapshot differs from WritePrometheus:\n%s\nvs\n%s", v, got, want.String())
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Publish(reg, nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a warm Publish allocates %.1f times, want at most 2 (text and snapshot)", allocs)
	}
}

// sseEvent reads one "event:"/"data:" pair from an SSE stream.
func sseEvent(t *testing.T, r *bufio.Reader) (event, data string) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended: %v (event=%q data=%q)", err, event, data)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && event != "":
			return event, data
		}
	}
}

func TestSSEStream(t *testing.T) {
	b := NewBroker()
	srv := httptest.NewServer(NewMux(b))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	if ev, data := sseEvent(t, r); ev != "hello" || !strings.Contains(data, `"seq":0`) {
		t.Fatalf("first frame = %s %q, want hello", ev, data)
	}

	// The handler registers its subscription before writing the hello
	// frame, so after reading it the publish below cannot race the
	// subscribe.
	n := uint64(1)
	reg := telemetry.NewRegistry()
	reg.Counter("sse_total", nil, "", func() uint64 { return n })
	if err := b.Publish(reg, nil, 100); err != nil {
		t.Fatal(err)
	}
	ev, data := sseEvent(t, r)
	if ev != "metrics" {
		t.Fatalf("frame = %s %q, want metrics", ev, data)
	}
	var delta struct {
		SimNS  int64   `json:"sim_ns"`
		Deltas []Delta `json:"deltas"`
	}
	if err := json.Unmarshal([]byte(data), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.SimNS != 100 || len(delta.Deltas) != 1 || delta.Deltas[0].Metric != "sse_total" ||
		delta.Deltas[0].Value != 1 || delta.Deltas[0].Prev != 0 {
		t.Fatalf("delta frame = %+v", delta)
	}

	// Unchanged metrics publish no frame; the next change publishes only
	// the changed value with the right prev.
	if err := b.Publish(reg, nil, 200); err != nil {
		t.Fatal(err)
	}
	n = 5
	if err := b.Publish(reg, nil, 300); err != nil {
		t.Fatal(err)
	}
	ev, data = sseEvent(t, r)
	if ev != "metrics" || !strings.Contains(data, `"sim_ns":300`) ||
		!strings.Contains(data, `"prev":1`) {
		t.Fatalf("second delta = %s %q", ev, data)
	}

	breaches := []intnet.Breach{
		{Objective: "latency:io<15µs", Sink: "io", AtNS: 10, Measured: 20000},
		{Objective: "latency:io<15µs", Sink: "io", AtNS: 50, Measured: 21000},
	}
	b.PublishBreaches(breaches[:1])
	b.PublishBreaches(breaches[:1]) // idempotent: nothing new
	b.PublishBreaches(breaches)     // one new entry
	ev, data = sseEvent(t, r)
	if ev != "breach" || !strings.Contains(data, `"at_ns":10`) {
		t.Fatalf("breach frame = %s %q", ev, data)
	}
	ev, data = sseEvent(t, r)
	if ev != "breach" || !strings.Contains(data, `"at_ns":50`) {
		t.Fatalf("second breach frame = %s %q", ev, data)
	}
}

func TestPublishBreachesNeverRewinds(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe()
	defer cancel()
	full := []intnet.Breach{{Sink: "a", AtNS: 1}, {Sink: "b", AtNS: 2}}
	b.PublishBreaches(full)
	// A publisher holding a shorter view (e.g. a not-yet-merged log) must
	// not reset the high-water mark...
	b.PublishBreaches(full[:1])
	// ...or the full log would be re-sent here.
	b.PublishBreaches(full)
	if got := len(ch); got != 2 {
		t.Fatalf("subscriber saw %d breach frames, want 2", got)
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe()
	defer cancel()
	reg := telemetry.NewRegistry()
	n := uint64(0)
	reg.Counter("x_total", nil, "", func() uint64 { return n })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subBuf+10; i++ {
			n++
			if err := b.Publish(reg, nil, int64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if len(ch) != subBuf {
		t.Fatalf("subscriber buffer holds %d, want full %d", len(ch), subBuf)
	}
	if b.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", b.Dropped())
	}
}

// TestSlowSubscriberEviction pins the eviction contract: a subscriber
// that drops evictAfter frames in a row is unsubscribed and its channel
// closed after the buffered frames; a delivery in between re-arms it.
func TestSlowSubscriberEviction(t *testing.T) {
	b := NewBroker()
	b.fan.SetLimits(0, 3)
	ch, cancel := b.Subscribe()
	defer cancel()
	reg := telemetry.NewRegistry()
	n := uint64(0)
	reg.Counter("x_total", nil, "", func() uint64 { return n })
	pub := func() {
		t.Helper()
		n++
		if err := b.Publish(reg, nil, int64(n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < subBuf; i++ {
		pub()
	}
	// Two consecutive drops, then a delivery: the drop streak resets.
	pub()
	pub()
	<-ch
	pub()
	if b.Evicted() != 0 {
		t.Fatalf("evicted after a non-consecutive drop streak (dropped=%d)", b.Dropped())
	}
	// Three consecutive drops evict.
	pub()
	pub()
	pub()
	if b.Evicted() != 1 || b.Subscribers() != 0 {
		t.Fatalf("evicted=%d subscribers=%d, want 1, 0", b.Evicted(), b.Subscribers())
	}
	if b.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 2 before the delivery + 3 after", b.Dropped())
	}
	// The buffered frames drain, then the channel reports closed.
	drained := 0
	for range ch {
		drained++
	}
	if drained != subBuf {
		t.Fatalf("drained %d buffered frames, want %d", drained, subBuf)
	}
	cancel() // idempotent after eviction
}

// TestBrokerSubscribeChurnRace hammers subscribe/unsubscribe against a
// publisher; under -race it pins the broker's locking on the shared
// subscriber table.
func TestBrokerSubscribeChurnRace(t *testing.T) {
	b := NewBroker()
	b.fan.SetLimits(0, 2)
	reg := telemetry.NewRegistry()
	var n atomic.Uint64
	reg.Counter("x_total", nil, "", func() uint64 { return n.Load() })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := b.Subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		n.Add(1)
		if err := b.Publish(reg, nil, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if b.Current().Seq != 2000 {
		t.Fatalf("seq = %d after 2000 publishes", b.Current().Seq)
	}
}

func TestListenServesAndCloses(t *testing.T) {
	b := NewBroker()
	s, err := Listen("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, "http://"+s.Addr()+"/healthz")
	if code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("healthz over real listener: %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestSlowHeaderIsCutOff: a client that opens a connection and never
// finishes its request header is disconnected once readHeaderTimeout
// has passed, not held for as long as it likes.
func TestSlowHeaderIsCutOff(t *testing.T) {
	t.Parallel()
	s, err := Listen("127.0.0.1:0", NewBroker())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server answers 408 or nothing; either way the read ends with
	// the connection closed, well before the deadline above.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after a header that never finished: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("cut off after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestHealthzStateAndHistory covers the PR 10 additions to the obs
// surface: run state and publish age on /healthz, and the optional
// time-series history at /history.
func TestHealthzStateAndHistory(t *testing.T) {
	b := NewBroker()
	srv := httptest.NewServer(NewMux(b))
	defer srv.Close()

	// Before any publish: no state set, never published, no recorder.
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"state":""`) || !strings.Contains(body, `"last_publish_age_ms":-1`) {
		t.Fatalf("healthz before publish: %d %q", code, body)
	}
	if code, body, _ = get(t, srv.URL+"/history"); code != 404 || !strings.Contains(body, "no history") {
		t.Fatalf("history without a recorder: %d %q", code, body)
	}

	b.SetState("running")
	b.SetRecorder(tshist.NewRecorder(0, 0, 0))
	v := uint64(7)
	reg := telemetry.NewRegistry()
	reg.Counter("test_events_total", nil, "events", func() uint64 { return v })
	if err := b.Publish(reg, nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	v = 9
	if err := b.Publish(reg, nil, 100_000_000); err != nil {
		t.Fatal(err)
	}
	// A clockless end-of-run publish must not pollute the time axis.
	if err := b.Publish(reg, nil, -1); err != nil {
		t.Fatal(err)
	}
	b.SetState("done")

	code, body, _ = get(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"state":"done"`) || strings.Contains(body, `"last_publish_age_ms":-1`) {
		t.Fatalf("healthz after publish: %d %q", code, body)
	}
	if code, body, _ = get(t, srv.URL+"/history"); code != 200 || !strings.Contains(body, `"test_events_total"`) {
		t.Fatalf("history listing: %d %q", code, body)
	}
	code, body, _ = get(t, srv.URL+"/history?metric=test_events_total")
	if code != 200 || !strings.Contains(body, `"points":[[50000000,7],[100000000,9]]`) {
		t.Fatalf("history series: %d %q", code, body)
	}
	if age, ok := b.LastPublishAge(); !ok || age < 0 {
		t.Fatalf("LastPublishAge = %v, %v after publishing", age, ok)
	}
}
