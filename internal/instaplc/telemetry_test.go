package instaplc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"steelnet/internal/faults"
	"steelnet/internal/telemetry"
)

// The exported trace must be a faithful record of the run: loading the
// JSONL back and rebinning its Deliver events must reproduce the Fig. 5
// packets-per-50ms series — and thus the rendered figure — byte for
// byte. ToIO bin k covers [k·Bin, (k+1)·Bin): the sampling ticker is
// scheduled a full bin ahead of same-timestamp deliveries, so an edge
// delivery lands in the bin it opens.
func TestTraceRoundTripReproducesFigure5(t *testing.T) {
	cfg := DefaultExperimentConfig()
	tr := telemetry.NewTracer(nil)
	cfg.Trace = tr
	res := RunExperiment(cfg)
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}

	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]int, int(cfg.Horizon/cfg.Bin))
	for _, e := range events {
		if i := int(e.T / int64(cfg.Bin)); e.Kind == telemetry.KindDeliver && e.Node == "io" && i < len(got) {
			got[i]++
		}
	}
	if len(got) != len(res.ToIO) {
		t.Fatalf("replayed %d bins, live series has %d", len(got), len(res.ToIO))
	}
	if !reflect.DeepEqual(got, res.ToIO) {
		t.Fatalf("replayed to-IO series diverges from live counters:\nreplay: %v\nlive:   %v", got, res.ToIO)
	}

	// Byte-identical rendered figure from the replayed series.
	replayed := res
	replayed.ToIO = got
	if a, b := RenderFigure5(replayed), RenderFigure5(res); a != b {
		t.Fatalf("rendered figure differs:\n%s\nvs\n%s", a, b)
	}
}

// Attaching a tracer must not change the simulation: same seed, same
// series, same ground truth, with and without telemetry.
func TestTracingDoesNotPerturbExperiment(t *testing.T) {
	plain := RunExperiment(DefaultExperimentConfig())

	cfg := DefaultExperimentConfig()
	cfg.Trace = telemetry.NewTracer(nil)
	cfg.Metrics = telemetry.NewRegistry()
	traced := RunExperiment(cfg)

	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("telemetry perturbed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// A chaos-style plan with durations must show up in the Chrome export
// as duration spans on the fault lane, alongside injected-loss drops in
// the frame lanes.
func TestChaosTraceContainsFaultSpans(t *testing.T) {
	plan, err := faults.ParsePlan("hoststall:vplc1@500ms+200ms,loss:dp.2@1s+100ms*0.9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperimentConfig()
	cfg.Faults = &plan
	tr := telemetry.NewTracer(nil)
	cfg.Trace = tr
	RunExperiment(cfg)

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	spans := 0
	sawInjectedDrop := false
	for _, te := range doc.TraceEvents {
		if te["cat"] == "fault" && te["ph"] == "X" && te["dur"].(float64) > 0 {
			spans++
		}
		if te["name"] == "drop:injected" {
			sawInjectedDrop = true
		}
	}
	if spans != 2 {
		t.Fatalf("fault spans = %d, want 2 (one per recovering fault)", spans)
	}
	if !sawInjectedDrop {
		t.Fatal("loss burst left no drop:injected events in the trace")
	}

	// The accompanying accounting must still balance under injected loss.
	res := RunExperiment(cfg)
	if err := res.Accounting.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Accounting.InjectedDrops == 0 {
		t.Fatal("loss burst destroyed no frames")
	}
}
