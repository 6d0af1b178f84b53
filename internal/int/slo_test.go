package intnet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/telemetry"
)

func TestObjectiveRoundTrip(t *testing.T) {
	specs := []string{
		"latency:vplc1<500µs",
		"jitter:*<50µs",
		"loss:*<0.01",
		"latency:refl<250µs,loss:refl<0.1",
	}
	for _, s := range specs {
		p, err := ParseSLOPlan(s)
		if err != nil {
			t.Fatalf("ParseSLOPlan(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	if p, err := ParseSLOPlan(""); err != nil || p != nil {
		t.Fatalf("empty spec = %v, %v; want nil plan", p, err)
	}
}

func TestObjectiveParseErrors(t *testing.T) {
	bad := map[string]string{
		"latency:vplc1":     "missing '<bound'",
		"latency<500µs":     "missing 'kind:target'",
		"p99:vplc1<500µs":   "unknown kind",
		"latency:<500µs":    "empty target",
		"latency:vplc1<web": "bad duration",
		"latency:vplc1<-1s": "non-positive bound",
		"loss:*<zero":       "bad loss fraction",
		"loss:*<0":          "loss fraction must be in (0,1)",
		"loss:*<1.5":        "loss fraction must be in (0,1)",
		"loss:*<NaN":        "loss fraction must be in (0,1)",
	}
	for spec, want := range bad {
		_, err := ParseObjective(spec)
		if err == nil {
			t.Fatalf("ParseObjective(%q) accepted", spec)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseObjective(%q) = %v, want mention of %q", spec, err, want)
		}
	}
}

// obs builds a minimal observation for watchdog tests.
func obs(sink string, atNS, e2e int64) Observation {
	return Observation{Sink: sink, Source: "src", Flow: 1, AtNS: atNS, E2ENS: e2e}
}

func TestWatchdogHysteresis(t *testing.T) {
	plan, err := ParseSLOPlan("latency:dst<1µs")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(nil)
	w := NewWatchdog(plan, tr)

	over, under := int64(2000), int64(500)
	at := int64(0)
	feed := func(e2e int64, n int) {
		for i := 0; i < n; i++ {
			at += 100
			w.Observe(obs("dst", at, e2e))
		}
	}

	feed(over, 2) // two over: not enough
	if inBreach(w) {
		t.Fatal("breached after 2 consecutive over (hysteresis 3)")
	}
	feed(under, 1) // resets the over counter
	feed(over, 2)
	if inBreach(w) {
		t.Fatal("breached across a reset over-run")
	}
	feed(over, 1) // third consecutive: breach opens
	if !inBreach(w) {
		t.Fatal("not breached after 3 consecutive over")
	}
	breachAt := at
	feed(under, 2)
	if !inBreach(w) {
		t.Fatal("cleared after only 2 consecutive under")
	}
	feed(under, 1)
	if inBreach(w) {
		t.Fatal("still breached after 3 consecutive under")
	}

	bs := w.Breaches()
	if len(bs) != 1 {
		t.Fatalf("got %d breaches, want 1", len(bs))
	}
	b := bs[0]
	if b.Sink != "dst" || b.Objective != "latency:dst<1µs" {
		t.Fatalf("breach identity = %+v", b)
	}
	if b.AtNS != breachAt || b.Measured != over {
		t.Fatalf("breach onset = at %d measured %d, want %d/%d", b.AtNS, b.Measured, breachAt, over)
	}
	if b.ClearedAtNS != at {
		t.Fatalf("ClearedAtNS = %d, want %d", b.ClearedAtNS, at)
	}

	// Exactly one breach and one clear span in the trace's "slo" lane.
	var breaches, clears int
	for _, e := range tr.Events() {
		switch e.Kind {
		case telemetry.KindSLOBreach:
			breaches++
			if e.Node != "dst" || e.Detail != "latency:dst<1µs" || e.Aux != over {
				t.Fatalf("breach event = %+v", e)
			}
		case telemetry.KindSLOClear:
			clears++
		}
	}
	if breaches != 1 || clears != 1 {
		t.Fatalf("trace saw %d breach / %d clear events, want 1/1", breaches, clears)
	}
}

func TestWatchdogLossObjective(t *testing.T) {
	plan, err := ParseSLOPlan("loss:*<0.1")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatchdog(plan, nil) // nil tracer must be safe
	w.Observe(Observation{Sink: "dst", AtNS: 10})
	if inBreach(w) {
		t.Fatal("breached with zero loss")
	}
	// One arrival exposing 3 lost frames (3/5 = 60% > 10%), then two
	// clean ones (3/6, 3/7): the third over-bound observation breaches.
	w.Observe(Observation{Sink: "dst", AtNS: 20, NewlyLost: 3})
	w.Observe(Observation{Sink: "dst", AtNS: 30})
	if inBreach(w) {
		t.Fatal("breached after two over-bound observations")
	}
	w.Observe(Observation{Sink: "dst", AtNS: 40})
	if !inBreach(w) {
		t.Fatal("not breached at 43% cumulative loss")
	}
	if m := w.Breaches()[0].Measured; m != 428_571 {
		t.Fatalf("Measured = %d lost-per-million, want 428571", m)
	}
}

func TestWatchdogWildcardTargets(t *testing.T) {
	plan, _ := ParseSLOPlan("latency:*<1µs")
	w := NewWatchdog(plan, nil)
	scoped := NewWatchdog(SLOPlan{{Kind: SLOLatency, Target: "a", Bound: time.Microsecond}}, nil)
	for i := int64(0); i < Consecutive; i++ {
		w.Observe(obs("a", 10*i+1, 5000))
		w.Observe(obs("b", 10*i+2, 5000))
		scoped.Observe(obs("b", 10*i+1, 5000))
	}
	if got := len(w.Breaches()); got != 2 {
		t.Fatalf("wildcard opened %d breaches, want one per sink", got)
	}
	if len(scoped.Breaches()) != 0 {
		t.Fatal("scoped objective fired on a different sink")
	}
}

// TestWatchdogAttachReplacesObserver: the watchdog is a collector's
// only subscriber; Attach takes the OnSink slot, it does not chain.
func TestWatchdogAttachReplacesObserver(t *testing.T) {
	c := NewCollector()
	var earlier int
	c.OnSink = func(Observation) { earlier++ }
	plan, _ := ParseSLOPlan("latency:dst<1µs")
	w := NewWatchdog(plan, nil)
	w.Attach(c)

	for seq := uint32(1); seq <= Consecutive; seq++ {
		sinkFrame(c, "dst", "src", 1, seq, 0, 5000*int64(seq))
	}
	if earlier != 0 {
		t.Fatalf("replaced observer called %d times, want 0", earlier)
	}
	if len(w.Breaches()) != 1 {
		t.Fatalf("watchdog saw %d breaches through Attach, want 1", len(w.Breaches()))
	}
}

func TestWatchdogBreachLogJSONL(t *testing.T) {
	plan, _ := ParseSLOPlan("latency:dst<1µs")
	w := NewWatchdog(plan, nil)
	for at := int64(100); at <= 300; at += 100 {
		w.Observe(obs("dst", at, 9000)) // the third opens it; it never clears
	}

	var buf bytes.Buffer
	if err := w.WriteBreachLog(&buf); err != nil {
		t.Fatal(err)
	}
	var got Breach
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("breach log line is not JSON: %v", err)
	}
	want := Breach{Objective: "latency:dst<1µs", Sink: "dst", AtNS: 300, Measured: 9000, ClearedAtNS: -1}
	if got != want {
		t.Fatalf("breach = %+v, want %+v", got, want)
	}
}

func TestWatchdogFoldDeterministic(t *testing.T) {
	mk := func() *Watchdog {
		plan, _ := ParseSLOPlan("latency:*<1µs,loss:*<0.5")
		w := NewWatchdog(plan, nil)
		for i := int64(1); i <= 6; i++ {
			w.Observe(obs("a", i*10, 2000))
			w.Observe(obs("b", i*10+5, 400))
		}
		return w
	}
	fold := func(w *Watchdog) uint64 {
		d := checkpoint.NewDigest()
		w.FoldState(d)
		return d.Sum()
	}
	if fold(mk()) != fold(mk()) {
		t.Fatal("identical watchdog histories folded differently")
	}
}

func TestWatchdogAbsorb(t *testing.T) {
	plan, err := ParseSLOPlan("latency:*<1µs")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(nil)
	// Two shard-local watchdogs over disjoint sinks: sinkA breaches and
	// clears; sinkB breaches and stays open.
	wa := NewWatchdog(plan, tr)
	for i := 0; i < Consecutive; i++ {
		wa.Observe(obs("sinkA", int64(100+i), 5000))
	}
	for i := 0; i < Consecutive; i++ {
		wa.Observe(obs("sinkA", int64(200+i), 100))
	}
	wb := NewWatchdog(plan, tr)
	for i := 0; i < Consecutive; i++ {
		wb.Observe(obs("sinkB", int64(150+i), 9000))
	}

	merged := NewWatchdog(plan, tr)
	merged.Absorb(wa)
	merged.Absorb(wb)
	bs := merged.Breaches()
	if len(bs) != 2 {
		t.Fatalf("merged %d breaches, want 2", len(bs))
	}
	if bs[0].Sink != "sinkA" || bs[0].ClearedAtNS == -1 {
		t.Fatalf("breach 0 = %+v, want cleared sinkA", bs[0])
	}
	if bs[1].Sink != "sinkB" || bs[1].ClearedAtNS != -1 {
		t.Fatalf("breach 1 = %+v, want open sinkB", bs[1])
	}
	if !inBreach(merged) {
		t.Fatal("merged watchdog lost sinkB's open breach")
	}
	// The open breach's state index survived the offset: clearing it
	// through the merged watchdog must close the right log entry.
	for i := 0; i < Consecutive; i++ {
		merged.Observe(obs("sinkB", int64(300+i), 100))
	}
	if inBreach(merged) {
		t.Fatal("absorbed open breach did not clear")
	}
	if merged.Breaches()[1].ClearedAtNS != 302 {
		t.Fatalf("cleared at %d, want 302", merged.Breaches()[1].ClearedAtNS)
	}
	// Same shard-merge order, same digest: absorb is deterministic.
	again := NewWatchdog(plan, tr)
	again.Absorb(wa)
	again.Absorb(wb)
	for i := 0; i < Consecutive; i++ {
		again.Observe(obs("sinkB", int64(300+i), 100))
	}
	d1, d2 := checkpoint.NewDigest(), checkpoint.NewDigest()
	merged.FoldState(d1)
	again.FoldState(d2)
	if d1.Sum() != d2.Sum() {
		t.Fatalf("absorb not deterministic: %#x != %#x", d1.Sum(), d2.Sum())
	}
}

func TestWatchdogAbsorbRejectsOverlapAndPlanMismatch(t *testing.T) {
	plan, _ := ParseSLOPlan("latency:*<1µs")
	other, _ := ParseSLOPlan("jitter:*<1µs")
	tr := telemetry.NewTracer(nil)
	a := NewWatchdog(plan, tr)
	a.Observe(obs("s", 1, 10))
	b := NewWatchdog(plan, tr)
	b.Observe(obs("s", 1, 10))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping sinks did not panic")
			}
		}()
		a.Absorb(b)
	}()
	c := NewWatchdog(other, tr)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("plan mismatch did not panic")
			}
		}()
		a.Absorb(c)
	}()
}

// inBreach reports whether any objective of w is currently breached.
func inBreach(w *Watchdog) bool {
	for _, st := range w.states {
		if st.inBreach {
			return true
		}
	}
	return false
}
