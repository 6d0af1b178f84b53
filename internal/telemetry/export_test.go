package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sampleEvents exercises every kind at least once, with and without
// causes, ports, frames and details.
func sampleEvents() []Event {
	return []Event{
		{T: 0, Kind: KindHostTx, Node: "h1", Frame: 1, Prio: 6},
		{T: 10, Kind: KindEnqueue, Node: "h1", Frame: 1, Prio: 6, Aux: 1},
		{T: 20, Kind: KindTxStart, Node: "h1", Frame: 1, Prio: 6, Aux: 5120},
		{T: 30, Kind: KindForward, Node: "sw0", Port: 2, Frame: 1, Aux: 1},
		{T: 40, Kind: KindFlood, Node: "sw0", Port: 1, Frame: 2, Aux: 3},
		{T: 50, Kind: KindPacketIn, Node: "dp", Port: 0, Frame: 3},
		{T: 60, Kind: KindCorrupt, Node: "sw0", Port: 1, Frame: 4},
		{T: 70, Kind: KindDrop, Cause: CauseOverflow, Node: "sw0", Port: 1, Frame: 5},
		{T: 80, Kind: KindDrop, Cause: CauseInjected, Node: "h1", Frame: 6},
		{T: 90, Kind: KindDeliver, Node: "h2", Frame: 1, Prio: 6, Aux: 90},
		{T: 100, Kind: KindFaultInject, Port: -1, Node: "vplc1", Detail: "hoststall:vplc1@100ns+50ns", Aux: 50},
		{T: 150, Kind: KindFaultRecover, Port: -1, Node: "vplc1", Detail: "hoststall:vplc1@100ns+50ns"},
		{T: 160, Kind: KindDrop, Cause: CauseINT, Node: "sw0", Port: 1, Frame: 7},
		{T: 170, Kind: KindSLOBreach, Port: -1, Node: "io", Detail: "latency:io<250µs", Aux: 300_000},
		{T: 180, Kind: KindSLOClear, Port: -1, Node: "io", Detail: "latency:io<250µs"},
	}
}

func TestJSONLRoundTripExact(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadJSONLRejectsCorruptTraces(t *testing.T) {
	for _, tc := range []struct{ name, line, wantErr string }{
		{"unknown kind", `{"t":1,"kind":"bogus"}`, `unknown kind "bogus"`},
		{"unknown cause", `{"t":1,"kind":"drop","cause":"bogus"}`, `unknown cause "bogus"`},
		{"bad json", `{"t":`, "trace line 1"},
	} {
		_, err := ReadJSONL(strings.NewReader(tc.line))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want contains %q", tc.name, err, tc.wantErr)
		}
	}
}

// decodeChrome parses a Chrome trace into generic maps for assertions.
func decodeChrome(t *testing.T, events []Event) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestChromeTraceFaultSpansAndSlices(t *testing.T) {
	tes := decodeChrome(t, sampleEvents())
	var faultSpan, txSlice, metaFaults, instants int
	for _, te := range tes {
		switch {
		case te["ph"] == "M" && te["name"] == "thread_name":
			if args, _ := te["args"].(map[string]any); args["name"] == "faults" {
				metaFaults++
				if te["tid"].(float64) != 0 {
					t.Fatalf("faults lane tid = %v, want 0", te["tid"])
				}
			}
		case te["cat"] == "fault" && te["ph"] == "X":
			faultSpan++
			if te["dur"].(float64) != 0.05 { // 50 ns = 0.05 µs
				t.Fatalf("fault span dur = %v µs", te["dur"])
			}
		case te["name"] == "tx-start":
			if te["ph"] != "X" {
				t.Fatalf("tx-start ph = %v, want X", te["ph"])
			}
			txSlice++
			if te["dur"].(float64) != 5.12 { // 5120 ns = 5.12 µs
				t.Fatalf("tx-start dur = %v µs", te["dur"])
			}
		case te["ph"] == "i":
			instants++
		}
	}
	if metaFaults != 1 || faultSpan != 1 || txSlice != 1 {
		t.Fatalf("meta=%d spans=%d slices=%d", metaFaults, faultSpan, txSlice)
	}
	if instants == 0 {
		t.Fatal("no instant events")
	}
	// Drop events carry their cause in the name.
	var sawCause bool
	for _, te := range tes {
		if te["name"] == "drop:overflow" {
			sawCause = true
		}
	}
	if !sawCause {
		t.Fatal("drop cause not rendered in event name")
	}
}

// The watchdog's breach/clear pairs must render exactly like fault
// spans, in their own "slo" lane (tid 1), carrying the measured value.
func TestChromeTraceSLOLane(t *testing.T) {
	tes := decodeChrome(t, sampleEvents())
	var metaSLO, spans int
	for _, te := range tes {
		switch {
		case te["ph"] == "M" && te["name"] == "thread_name":
			if args, _ := te["args"].(map[string]any); args["name"] == "slo" {
				metaSLO++
				if te["tid"].(float64) != 1 {
					t.Fatalf("slo lane tid = %v, want 1", te["tid"])
				}
			}
		case te["cat"] == "slo":
			spans++
			if te["ph"] != "X" {
				t.Fatalf("matched breach ph = %v, want X span", te["ph"])
			}
			if te["dur"].(float64) != 0.01 { // 170ns..180ns = 0.01 µs
				t.Fatalf("breach span dur = %v µs", te["dur"])
			}
			args := te["args"].(map[string]any)
			if args["measured"].(float64) != 300_000 {
				t.Fatalf("breach span measured = %v", args["measured"])
			}
		case te["name"] == "slo-clear":
			t.Fatal("slo-clear leaked as its own event; it is the span end")
		}
	}
	if metaSLO != 1 || spans != 1 {
		t.Fatalf("slo meta=%d spans=%d, want 1/1", metaSLO, spans)
	}
}

func TestChromeTraceUnmatchedBreachBecomesInstant(t *testing.T) {
	tes := decodeChrome(t, []Event{
		{T: 100, Kind: KindSLOBreach, Port: -1, Node: "io", Detail: "jitter:io<50µs", Aux: 60000},
	})
	var found bool
	for _, te := range tes {
		if te["cat"] == "slo" {
			found = true
			if te["ph"] != "i" || te["s"] != "g" {
				t.Fatalf("unmatched breach = %+v", te)
			}
		}
	}
	if !found {
		t.Fatal("no slo event emitted")
	}
}

func TestChromeTraceUnmatchedInjectBecomesInstant(t *testing.T) {
	tes := decodeChrome(t, []Event{
		{T: 100, Kind: KindFaultInject, Port: -1, Node: "l0", Detail: "linkflap:l0@100ns"},
	})
	var found bool
	for _, te := range tes {
		if te["cat"] == "fault" {
			found = true
			if te["ph"] != "i" || te["s"] != "g" {
				t.Fatalf("unmatched inject = %+v", te)
			}
		}
	}
	if !found {
		t.Fatal("no fault event emitted")
	}
}

// TestChromeTraceGatewayLanes pins the fleet-observability rendering:
// gateway-plane kinds live in their own "steelnetd" process (pid 2)
// whose metadata only appears when such events exist, run windows are
// duration spans, rule firings instants, and HTTP requests spans on
// the "http" lane — all stitched above the sim lanes in one file.
func TestChromeTraceGatewayLanes(t *testing.T) {
	events := append(sampleEvents(),
		Event{T: 0, Kind: KindRunWindow, Node: "run/mill", Frame: 1, Aux: 50_000_000},
		Event{T: 50_000_000, Kind: KindRunWindow, Node: "run/mill", Frame: 2, Aux: 50_000_000},
		Event{T: 50_000_000, Kind: KindRuleFiring, Node: "run/mill", Detail: "loss:*>0.1->kafka:alerts", Aux: 2},
		Event{T: 50_000_000, Kind: KindHTTPRequest, Node: "http", Detail: "/runs/{id}/events", Frame: 200, Aux: 1_200_000},
	)
	tes := decodeChrome(t, events)
	var procMeta, runSpans, firingInstants, httpSpans int
	laneNames := map[string]bool{}
	for _, te := range tes {
		pid, _ := te["pid"].(float64)
		switch {
		case te["ph"] == "M" && te["name"] == "process_name" && pid == 2:
			procMeta++
			if args := te["args"].(map[string]any); args["name"] != "steelnetd" {
				t.Fatalf("gateway process name = %v", args["name"])
			}
		case te["ph"] == "M" && te["name"] == "thread_name" && pid == 2:
			laneNames[te["args"].(map[string]any)["name"].(string)] = true
		case te["cat"] == "gateway":
			runSpans++
			if te["ph"] != "X" || pid != 2 {
				t.Fatalf("run window = %+v, want X span in pid 2", te)
			}
			if te["dur"].(float64) != 50_000 { // 50ms = 5e4 µs
				t.Fatalf("run window dur = %v µs", te["dur"])
			}
		case te["cat"] == "rule":
			firingInstants++
			if te["ph"] != "i" || te["name"] != "loss:*>0.1->kafka:alerts" {
				t.Fatalf("rule firing = %+v", te)
			}
		case te["cat"] == "http":
			httpSpans++
			if te["ph"] != "X" || te["name"] != "/runs/{id}/events" {
				t.Fatalf("http request = %+v", te)
			}
			if te["args"].(map[string]any)["status"].(float64) != 200 {
				t.Fatalf("http status = %+v", te["args"])
			}
		}
	}
	if procMeta != 1 || runSpans != 2 || firingInstants != 1 || httpSpans != 1 {
		t.Fatalf("proc=%d windows=%d firings=%d http=%d", procMeta, runSpans, firingInstants, httpSpans)
	}
	if !laneNames["run/mill"] || !laneNames["http"] {
		t.Fatalf("gateway lanes = %v, want run/mill and http", laneNames)
	}
}

// TestChromeTraceNoGatewayProcessWithoutGatewayEvents pins the lazy
// metadata: sim-only traces keep their exact historical shape.
func TestChromeTraceNoGatewayProcessWithoutGatewayEvents(t *testing.T) {
	for _, te := range decodeChrome(t, sampleEvents()) {
		if pid, _ := te["pid"].(float64); pid == 2 {
			t.Fatalf("sim-only trace grew a pid-2 event: %+v", te)
		}
	}
}
