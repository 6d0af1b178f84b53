package steelnetd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"steelnet/internal/core"
	intnet "steelnet/internal/int"
)

func TestParseRuleRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"latency:press-sink>250µs->kafka:alerts",
			Rule{Kind: CondLatency, Subject: "press-sink", Op: '>', Bound: 250 * time.Microsecond, Backend: "kafka", Topic: "alerts"}},
		{"jitter:*<1ms->mqtt:plant/jitter",
			Rule{Kind: CondJitter, Subject: "*", Op: '<', Bound: time.Millisecond, Backend: "mqtt", Topic: "plant/jitter"}},
		{"loss:*>0.01->mqtt:plant/loss",
			Rule{Kind: CondLoss, Subject: "*", Op: '>', Threshold: 0.01, Backend: "mqtt", Topic: "plant/loss"}},
		{"breach:instaplc-switch.out2>0->log:slo",
			Rule{Kind: CondBreach, Subject: "instaplc-switch.out2", Op: '>', Backend: "log", Topic: "slo"}},
		{`tag:steelnet_host_rx_total{node="io"}>100->kafka:tags`,
			Rule{Kind: CondTag, Subject: `steelnet_host_rx_total{node="io"}`, Op: '>', Threshold: 100, Backend: "kafka", Topic: "tags"}},
	}
	for _, c := range cases {
		r, err := parseOne(c.spec)
		if err != nil {
			t.Fatalf("parseOne(%q): %v", c.spec, err)
		}
		if r != c.want {
			t.Errorf("parseOne(%q) = %+v, want %+v", c.spec, r, c.want)
		}
		if got := r.String(); got != c.spec {
			t.Errorf("String() = %q, want exact round trip %q", got, c.spec)
		}
	}
}

func TestParseRuleTrimsWhitespace(t *testing.T) {
	r, err := parseOne("  loss : * > 0.5 -> kafka: alerts ")
	if err != nil {
		t.Fatal(err)
	}
	if want := "loss:*>0.5->kafka:alerts"; r.String() != want {
		t.Fatalf("canonical form %q, want %q", r.String(), want)
	}
	// The canonical form is a parse fixed point.
	r2, err := parseOne(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r {
		t.Fatalf("re-parse of canonical form diverged: %+v vs %+v", r2, r)
	}
}

func TestParseRuleErrorsWithPosition(t *testing.T) {
	cases := []struct {
		spec    string
		wantPos int
		wantMsg string
	}{
		{"loss:*>0.5", 10, "missing \"->\""},
		{"bogus:*>1->kafka:t", 0, "unknown condition kind"},
		{"nocolon->kafka:t", 0, "missing \"kind:\""},
		{"loss:*0.5->kafka:t", 9, "missing comparison"},
		{"loss:>0.5->kafka:t", 5, "empty subject"},
		{"loss:*>->kafka:t", 7, "empty threshold"},
		{"loss:*>abc->kafka:t", 7, "bad threshold"},
		{"latency:*>abc->kafka:t", 10, "bad duration"},
		{"loss:*>1->kafkat", 10, "missing \"backend:topic\""},
		{"loss:*>1->:t", 10, "empty backend"},
		{"loss:*>1->kafka:", 16, "empty topic"},
		{"loss:*>1->ka fka:t", 10, "reserved characters"},
		{"loss:*>1->kafka:t opic", 16, "reserved characters"},
	}
	for _, c := range cases {
		_, err := parseOne(c.spec)
		if err == nil {
			t.Errorf("parseOne(%q): want error, got nil", c.spec)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("parseOne(%q): error %T is not *ParseError", c.spec, err)
			continue
		}
		if pe.Pos != c.wantPos {
			t.Errorf("parseOne(%q): pos %d, want %d (%v)", c.spec, pe.Pos, c.wantPos, err)
		}
		if !strings.Contains(pe.Msg, c.wantMsg) {
			t.Errorf("parseOne(%q): msg %q does not contain %q", c.spec, pe.Msg, c.wantMsg)
		}
		if pe.Spec != c.spec {
			t.Errorf("parseOne(%q): ParseError.Spec = %q", c.spec, pe.Spec)
		}
		if !strings.Contains(pe.Error(), "pos ") {
			t.Errorf("Error() %q does not mention the position", pe.Error())
		}
	}
}

func TestParseRuleSet(t *testing.T) {
	spec := "loss:*>0.01->kafka:alerts;breach:*>0->log:slo"
	rs, err := ParseRuleSet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rs.Rules))
	}
	if rs.Name != spec {
		t.Errorf("Name = %q, want the spec", rs.Name)
	}
	if rs.String() != spec {
		t.Errorf("String() = %q, want exact round trip %q", rs.String(), spec)
	}
	if rs.Empty() {
		t.Error("Empty() on a two-rule set")
	}

	// Error positions are offsets into the full set spec.
	_, err = ParseRuleSet("loss:*>0.01->kafka:alerts;loss:*>abc->kafka:t")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Pos != 33 {
		t.Errorf("set error pos %d, want 33 (offset of the bad threshold)", pe.Pos)
	}

	empty, err := ParseRuleSet("   ")
	if err != nil || !empty.Empty() {
		t.Errorf("blank spec: got (%+v, %v), want empty set", empty, err)
	}
}

func TestCondKindNames(t *testing.T) {
	for k := CondKind(0); k < numCondKinds; k++ {
		got, ok := CondKindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d does not round-trip through %q", int(k), k.String())
		}
	}
	if _, ok := CondKindFromString("nope"); ok {
		t.Error("CondKindFromString accepted an unknown name")
	}
	if s := CondKind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("out-of-range kind String() = %q", s)
	}
}

// ruleSample builds a hand-rolled sample covering every condition kind.
func ruleSample(seq uint64) core.Sample {
	d1 := &intnet.PathDigest{Sink: "s1", Source: "a", Flow: 1, Count: 2, SumNS: 6000, MaxNS: 4000, JitterSumNS: 150}
	d2 := &intnet.PathDigest{Sink: "s2", Source: "b", Flow: 1, Count: 2, SumNS: 2000, MaxNS: 1500, JitterSumNS: 45}
	return core.Sample{
		Seq:   seq,
		SimNS: int64(seq) * 1000,
		Tags: []core.Tag{
			{Name: "x", Value: float64(seq)},
			{Name: "y", Value: 7},
		},
		Digests: []*intnet.PathDigest{d1, d2},
		Breaches: []intnet.Breach{
			{Objective: "latency:s1<1µs", Sink: "s1", AtNS: 10, ClearedAtNS: -1},
			{Objective: "latency:s2<1µs", Sink: "s2", AtNS: 20, ClearedAtNS: 30},
		},
		Loss: []intnet.SinkLoss{
			{Sink: "s1", Received: 90, Lost: 10},
			{Sink: "s2", Received: 100, Lost: 0},
		},
	}
}

func TestRuleEval(t *testing.T) {
	s := ruleSample(3)
	cases := []struct {
		spec string
		hold bool
		v    float64
	}{
		{"tag:x>2->log:t", true, 3},
		{"tag:x<2->log:t", false, 3},
		{"tag:missing>0->log:t", false, 0},
		{"latency:s1>2µs->log:t", true, 3000},  // d1 mean 3000ns
		{"latency:*>2.9µs->log:t", true, 3000}, // worst across sinks
		{"latency:s2>2µs->log:t", false, 1000}, // d2 mean 1000ns
		{"jitter:s1>100ns->log:t", true, 150},  // d1 jitter 150ns
		{"jitter:s2<100ns->log:t", true, 45},   // d2 jitter 45ns
		{"loss:s1>0.05->log:t", true, 0.1},     // 10/100
		{"loss:*>0.05->log:t", true, 0.1},      // worst sink
		{"loss:s2>0.05->log:t", false, 0},      // clean sink
		{"loss:nosuch>0->log:t", false, 0},     // absent sink: false
		{"breach:*>1->log:t", true, 2},         // both breaches
		{"breach:s1>0->log:t", true, 1},        // one at s1
		{"breach:nosuch>0->log:t", false, 0},   // count 0, not absent
		{"latency:nosuch>0s->log:t", false, 0}, // no digest: false
	}
	for _, c := range cases {
		r, err := parseOne(c.spec)
		if err != nil {
			t.Fatalf("parseOne(%q): %v", c.spec, err)
		}
		hold, v := r.eval(&s)
		if hold != c.hold || v != c.v {
			t.Errorf("%q: eval = (%v, %g), want (%v, %g)", c.spec, hold, v, c.hold, c.v)
		}
	}
}

func TestEngineEdgeTriggered(t *testing.T) {
	rs, err := ParseRuleSet("tag:x>2->kafka:alerts")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rs)

	below, above := ruleSample(1), ruleSample(5)
	if fs := e.Eval(&below); len(fs) != 0 {
		t.Fatalf("fired below threshold: %+v", fs)
	}
	fs := e.Eval(&above)
	if len(fs) != 1 {
		t.Fatalf("want 1 firing on the rising edge, got %d", len(fs))
	}
	f := fs[0]
	if f.Rule != "tag:x>2->kafka:alerts" || f.Seq != 5 || f.SimNS != 5000 || f.Value != 5 ||
		f.Backend != "kafka" || f.Topic != "alerts" {
		t.Fatalf("firing = %+v", f)
	}
	// Still true: no re-fire.
	if fs := e.Eval(&above); len(fs) != 0 {
		t.Fatalf("re-fired while condition held: %+v", fs)
	}
	// False re-arms, next true fires again.
	e.Eval(&below)
	if fs := e.Eval(&above); len(fs) != 1 {
		t.Fatalf("did not re-fire after re-arm: %+v", fs)
	}
}

func TestEngineFiresOnFirstSampleWhenTrue(t *testing.T) {
	e := NewEngine(mustRuleSet(t, "tag:y>1->log:t"))
	s := ruleSample(1)
	if fs := e.Eval(&s); len(fs) != 1 {
		t.Fatalf("condition true at first sample should fire once, got %d", len(fs))
	}
}

func mustRuleSet(t *testing.T, spec string) RuleSet {
	t.Helper()
	rs, err := ParseRuleSet(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// parseOne parses a spec holding one rule.
func parseOne(spec string) (Rule, error) { return parseRule(spec, spec, 0) }
