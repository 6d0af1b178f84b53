package steelnetd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// TestUnknownFaultTargetIsRejected: a run spec whose fault plan parses
// but names a target the scenario does not register is the client's
// mistake — an error from Start, a 400 from POST /runs — and the
// gateway keeps serving.
func TestUnknownFaultTargetIsRejected(t *testing.T) {
	g, srv := testServer(t)
	bad := testRun(1)
	bad.Faults = "hoststall:nosuch@1ms+1ms"
	if id, err := g.Start(RunSpec{ID: "bad", Run: bad}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("Start = %q, %v; want an error naming the target", id, err)
	}
	resp, err := http.Post(srv.URL+"/runs", "application/json",
		strings.NewReader(`{"id":"bad","run":{"seed":1,"horizon":400000000,"slice":50000000,"faults":"hoststall:nosuch@1ms+1ms"}}`))
	if err != nil {
		t.Fatalf("POST /runs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /runs with an unknown fault target: %d, want 400", resp.StatusCode)
	}
	if len(g.List()) != 0 {
		t.Fatalf("the rejected spec left a run behind: %+v", g.List())
	}
	id := postRun(t, srv.URL, RunSpec{ID: "after", Run: testRun(1)})
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestUncarriableCycleIsRejected: a run spec whose IO cycle the
// PROFINET connect request cannot carry (1 ns here: zero whole
// microseconds) is a 400 from POST /runs, not a run that later fails.
func TestUncarriableCycleIsRejected(t *testing.T) {
	g, srv := testServer(t)
	resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(`{"run":{"cycle":1}}`))
	if err != nil {
		t.Fatalf("POST /runs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /runs with a 1 ns cycle: %d, want 400", resp.StatusCode)
	}
	if len(g.List()) != 0 {
		t.Fatalf("the rejected spec left a run behind: %+v", g.List())
	}
}

// boomBackend panics on its nth publish.
type boomBackend struct{ n, seen int }

func (*boomBackend) Name() string { return "boom" }

func (b *boomBackend) Publish(topic, key string, payload []byte) error {
	if b.seen++; b.seen == b.n {
		panic("boom: publish " + topic)
	}
	return nil
}

// TestPanickingRunIsIsolated: a run whose backend panics mid-run ends
// failed with the panic text in its status and journal, gives its
// concurrency slot back (the sibling queued behind it at MaxConcurrent 1
// still runs), unblocks Wait — and the sibling's northbound log is byte
// for byte what a fleet without the bad run publishes.
func TestPanickingRunIsIsolated(t *testing.T) {
	good := RunSpec{ID: "good", Run: testRun(10), Rules: testRules}
	want := dumpLogs(t, 1, []RunSpec{good})

	kafka, mqtt := NewFakeKafka(), NewFakeMQTT()
	g := NewGateway(GatewayConfig{
		Backends:      Backends{"kafka": kafka, "mqtt": mqtt, "boom": &boomBackend{n: 2}},
		MaxConcurrent: 1,
	})
	defer g.Close()
	bad := RunSpec{ID: "bad", Run: testRun(11),
		Rules: `tag:steelnet_host_rx_total{node="io"}>1->boom:t;breach:*>0->boom:t`}
	for _, spec := range []RunSpec{bad, good} {
		if _, err := g.Start(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Wait("bad"); err == nil || !strings.Contains(err.Error(), "boom: publish t") {
		t.Fatalf("Wait(bad) = %v, want the panic text", err)
	}
	if err := g.Wait("good"); err != nil {
		t.Fatalf("Wait(good) = %v", err)
	}
	st, _ := g.Status("bad")
	if st.State != StateFailed || !strings.Contains(st.Error, "boom: publish t") || st.Seq == 0 {
		t.Fatalf("bad run status = %+v, want failed mid-run with the panic text", st)
	}
	if st, _ := g.Status("good"); st.State != StateDone {
		t.Fatalf("good run status = %+v, want done", st)
	}
	var journal bytes.Buffer
	if err := g.Journal().WriteLog(&journal); err != nil {
		t.Fatal(err)
	}
	var failed string
	for _, line := range strings.Split(journal.String(), "\n") {
		if strings.Contains(line, `"run":"bad"`) && strings.Contains(line, `"event":"failed"`) {
			failed = line
		}
	}
	if !strings.Contains(failed, "boom: publish t") {
		t.Fatalf("no failed journal record with the panic text for the bad run:\n%s", journal.String())
	}
	for name, f := range map[string]*FakeBackend{"kafka": kafka, "mqtt": mqtt} {
		var buf bytes.Buffer
		if err := f.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want[name] || buf.Len() == 0 {
			t.Errorf("%s log of the good run differs beside a panicking run:\n%s\nwant:\n%s", name, buf.String(), want[name])
		}
	}
}

// TestPostRunsBodyLimit: POST /runs reads at most maxRunSpecBytes; a
// larger body is refused with 413 before any run is built.
func TestPostRunsBodyLimit(t *testing.T) {
	g, srv := testServer(t)
	body := `{"id":"` + strings.Repeat("a", maxRunSpecBytes) + `","run":{"seed":1,"horizon":400000000,"slice":50000000}}`
	resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /runs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /runs with a %d-byte body: %d, want 413", len(body), resp.StatusCode)
	}
	if len(g.List()) != 0 {
		t.Fatalf("the oversized spec started a run: %+v", g.List())
	}
}

// TestPostRunsStrictSpec: a POST /runs body is exactly one run spec.
// A misspelt key would otherwise select a default in silence (the 3 s
// horizon, no rules), and bytes after the spec would be dropped unread.
// Each is a 400 carrying the decoder's message, and no run starts.
func TestPostRunsStrictSpec(t *testing.T) {
	g, srv := testServer(t)
	for _, tc := range []struct{ name, body, want string }{
		{"misspelt run field", `{"run":{"horizn":100000000,"slice":50000000}}`, `unknown field "horizn"`},
		{"misspelt spec field", `{"run":{"horizon":100000000,"slice":50000000},"rule":"loss:*>0.5->kafka:a"}`, `unknown field "rule"`},
		// A run has no pause: a spec that asks for one is refused.
		{"stop_after", `{"run":{"horizon":100000000,"slice":50000000},"stop_after":2}`, `unknown field "stop_after"`},
		{"trailing data", `{"run":{"horizon":100000000,"slice":50000000}} trailing`, "data after the run spec"},
		{"second spec", `{"run":{"horizon":100000000,"slice":50000000}} {}`, "data after the run spec"},
	} {
		resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: POST /runs: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: %d %q, want 400 containing %q", tc.name, resp.StatusCode, msg, tc.want)
		}
	}
	if len(g.List()) != 0 {
		t.Fatalf("a rejected spec started a run: %+v", g.List())
	}
}

// TestControlCharacterRunIDStaysJSON: DecodeRunSpec accepts an id with
// a control character ("a\u0001b"), and every JSON body rendered with
// it — journal records, the history listing, tag frames — must still
// parse and carry the id back.
func TestControlCharacterRunIDStaysJSON(t *testing.T) {
	g, srv := testServer(t)
	spec, err := DecodeRunSpec(strings.NewReader(`{"id":"a\u0001b","run":{"horizon":100000000,"slice":50000000}}`))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := g.Hub().Subscribe("")
	defer cancel()
	id, err := g.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := g.Journal().WriteLog(&journal); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(journal.String()), "\n")
	for _, l := range lines {
		var rec struct{ Run string }
		if err := json.Unmarshal([]byte(l), &rec); err != nil || rec.Run != id {
			t.Errorf("journal record %q: run %q, err %v", l, rec.Run, err)
		}
	}
	code, body := getBody(t, srv.URL+"/runs/"+url.PathEscape(id)+"/history")
	var listing struct{ Run string }
	if err := json.Unmarshal([]byte(body), &listing); code != http.StatusOK || err != nil || listing.Run != id {
		t.Errorf("history listing %d %.60q: run %q, err %v", code, body, listing.Run, err)
	}
	f := <-ch
	data := strings.TrimSuffix(string(f.Data[bytes.Index(f.Data, []byte("data: "))+6:]), "\n\n")
	var frame struct{ Run string }
	if err := json.Unmarshal([]byte(data), &frame); err != nil || frame.Run != id {
		t.Errorf("tag frame %.60q: run %q, err %v", data, frame.Run, err)
	}
}

// TestListenSetsServerLimits: the gateway's listener is built by
// obs.NewHTTPServer, whose slow-header behaviour internal/obs tests on
// a live socket.
func TestListenSetsServerLimits(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	s, err := Listen("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout <= 0 || s.srv.IdleTimeout <= 0 || s.srv.WriteTimeout != 0 {
		t.Fatalf("server limits: read-header %v, idle %v, write %v; want the first two set and no write timeout (SSE)",
			s.srv.ReadHeaderTimeout, s.srv.IdleTimeout, s.srv.WriteTimeout)
	}
}
