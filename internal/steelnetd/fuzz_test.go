package steelnetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// fuzzSeedSpecs are accepted rule specs spanning every condition kind,
// both ops, both threshold syntaxes and multi-rule sets; the mutator
// explores the grammar's boundary from both sides.
func fuzzSeedSpecs() []string {
	return []string{
		"latency:press-sink>250µs->kafka:alerts",
		"jitter:*<1ms->mqtt:plant/jitter",
		"loss:*>0.01->mqtt:plant/loss",
		"breach:instaplc-switch.out2>0->log:slo",
		`tag:steelnet_host_rx_total{node="io"}>100->kafka:tags`,
		"tag:x>1e-9->kafka:t",
		"loss:*>0.01->kafka:alerts;breach:*>0->log:slo",
		" loss : * > 0.5 -> kafka: alerts ",
		"",
		"loss:*>",
		"x",
		"latency:*>abc->k:t",
		"loss:*>1->:t",
	}
}

// FuzzParseRule pins the grammar's contract: the parser never panics;
// every rejection is a *ParseError whose position lands inside (or
// just past) the spec; and every accepted set round-trips exactly —
// String() is a parse fixed point that reproduces the same rules.
func FuzzParseRule(f *testing.F) {
	for _, s := range fuzzSeedSpecs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rs, err := ParseRuleSet(spec)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is %T, not *ParseError: %v", err, err)
			}
			if pe.Pos < 0 || pe.Pos > len(spec) {
				t.Fatalf("error position %d outside spec of length %d", pe.Pos, len(spec))
			}
			if pe.Spec != spec {
				t.Fatalf("ParseError.Spec = %q, want the input spec", pe.Spec)
			}
			return
		}
		for i, r := range rs.Rules {
			if r.Kind < 0 || r.Kind >= numCondKinds || r.Op != '<' && r.Op != '>' ||
				r.Subject == "" || r.Backend == "" || r.Topic == "" ||
				r.Kind == CondLoss && (r.Threshold < 0 || r.Threshold > 1) {
				t.Fatalf("parser accepted an invalid rule %d: %+v", i, r)
			}
		}
		canon := rs.String()
		rs2, err := ParseRuleSet(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if got := rs2.String(); got != canon {
			t.Fatalf("String is not a parse fixed point: %q -> %q", canon, got)
		}
		if len(rs2.Rules) != len(rs.Rules) {
			t.Fatalf("round trip changed rule count: %d -> %d", len(rs.Rules), len(rs2.Rules))
		}
		for i := range rs.Rules {
			if rs2.Rules[i] != rs.Rules[i] {
				t.Fatalf("rule %d changed across round trip:\n  %+v\n  %+v", i, rs.Rules[i], rs2.Rules[i])
			}
		}
	})
}

// FuzzRunSpec feeds arbitrary POST /runs bodies through the decoder the
// handler uses and into Start on a fresh gateway. The contract: nothing
// panics, and a spec Start accepts never ends failed — every way a spec
// can be bad must be Start's error (a 400), not a run that dies later.
// Horizon is capped at 200 ms and StopAfter at 3 slices to keep each
// input cheap.
func FuzzRunSpec(f *testing.F) {
	f.Add([]byte(`{"run":{"cycle":1}}`))
	f.Add([]byte(`{"id":"r","run":{"seed":7,"horizon":200000000,"slice":50000000,"trace":true},"rules":"loss:*>0.0->kafka:alerts"}`))
	f.Add([]byte(`{"run":{"horizon":200000000,"slice":1000000,"cycle":1000,"fail_at":1000000,"slo":"latency:*<1us"},"stop_after":2}`))
	f.Add([]byte(`{"run":{"horizon":100000000,"slice":25000000,"baseline":true,"faults":"loss:dp.2@10ms+20ms*0.5,hoststall:vplc1@30ms"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxRunSpecBytes {
			return // the handler answers 413
		}
		var spec RunSpec
		if json.NewDecoder(bytes.NewReader(body)).Decode(&spec) != nil {
			return // the handler answers 400
		}
		if spec.Run.Horizon <= 0 || spec.Run.Horizon > 200*time.Millisecond {
			spec.Run.Horizon = 200 * time.Millisecond
		}
		if spec.StopAfter == 0 || spec.StopAfter > 3 {
			spec.StopAfter = 3
		}
		g := NewGateway(GatewayConfig{})
		defer g.Close()
		id, err := g.Start(spec)
		if err != nil {
			return
		}
		if err := g.Wait(id); err != nil {
			t.Fatalf("accepted spec %s: run ended with %v", body, err)
		}
		if st, _ := g.Status(id); st.State == StateFailed {
			t.Fatalf("accepted spec %s: run ended failed: %s", body, st.Error)
		}
	})
}
