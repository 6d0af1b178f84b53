// Package steelnetd is the multi-simulation gateway: the paper's
// "data centers manufacturing steel" thesis turned into a server. Where
// internal/obs serves one run's telemetry, steelnetd hosts many
// concurrent runs (each a core.Headless driver on its own goroutine,
// publishing through a per-run obs.Broker), fans the fleet's changed
// tags out to thousands of SSE subscribers WarLogix-style (change
// detection, bounded drop-on-full queues, eviction of dead readers),
// and evaluates a declarative rule engine whose firings publish to
// pluggable northbound backends — in-process fake Kafka/MQTT/log
// implementations, so every firing and republish batch is
// deterministic in tests.
package steelnetd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"steelnet/internal/core"
)

// CondKind selects what a rule's condition measures.
type CondKind int

// Condition kinds. Each kind reads one namespace of a core.Sample and
// reduces it to a single float the threshold compares against.
const (
	// CondTag compares one tag's value (exact name match in the run's
	// flattened tag space, labels included).
	CondTag CondKind = iota
	// CondLatency compares the worst mean one-way INT latency over the
	// paths observed at the subject sink ("*" = any sink).
	CondLatency
	// CondJitter is CondLatency for mean jitter.
	CondJitter
	// CondLoss compares the subject sink's cumulative loss fraction
	// ("*" = worst sink).
	CondLoss
	// CondBreach compares the count of SLO breaches logged at the
	// subject sink ("*" = all sinks).
	CondBreach
	numCondKinds
)

var condKindNames = [...]string{
	CondTag:     "tag",
	CondLatency: "latency",
	CondJitter:  "jitter",
	CondLoss:    "loss",
	CondBreach:  "breach",
}

// String returns the kind's spec name (the one ParseRuleSet accepts).
func (k CondKind) String() string {
	if k >= 0 && int(k) < len(condKindNames) {
		return condKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CondKindFromString resolves a spec name to a CondKind.
func CondKindFromString(s string) (CondKind, bool) {
	for k, n := range condKindNames {
		if n == s {
			return CondKind(k), true
		}
	}
	return 0, false
}

// durational reports whether the kind's threshold is a duration
// (latency, jitter) rather than a plain float.
func (k CondKind) durational() bool { return k == CondLatency || k == CondJitter }

// Rule is one condition → action binding: when the measured value
// crosses the threshold (edge-triggered: a false→true transition fires
// once, and the rule re-arms when the condition goes false again), the
// firing publishes to the named northbound backend and topic.
type Rule struct {
	// Kind and Subject select the measurement; see the CondKind docs.
	Kind    CondKind
	Subject string
	// Op is '<' or '>'.
	Op byte
	// Threshold is the bound for tag/loss/breach kinds; Bound is the
	// bound for latency/jitter kinds. Exactly one is meaningful.
	Threshold float64
	Bound     time.Duration
	// Backend and Topic address the action's publish.
	Backend string
	Topic   string
}

// String renders the rule in ParseRuleSet's spec syntax, a fixed point:
// parsing r.String() reproduces r exactly.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Kind.String())
	b.WriteByte(':')
	b.WriteString(r.Subject)
	b.WriteByte(r.Op)
	if r.Kind.durational() {
		b.WriteString(r.Bound.String())
	} else {
		b.WriteString(strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	}
	b.WriteString("->")
	b.WriteString(r.Backend)
	b.WriteByte(':')
	b.WriteString(r.Topic)
	return b.String()
}

// RuleSet is an ordered list of rules sharing one spec string.
type RuleSet struct {
	// Name labels the set in logs and run listings (ParseRuleSet sets
	// it to the spec).
	Name  string
	Rules []Rule
}

// Empty reports whether the set has no rules.
func (rs RuleSet) Empty() bool { return len(rs.Rules) == 0 }

// String renders the set as a semicolon-separated spec ParseRuleSet
// accepts.
func (rs RuleSet) String() string {
	parts := make([]string, len(rs.Rules))
	for i, r := range rs.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// ParseError reports a rejected rule spec with the byte offset of the
// offending token.
type ParseError struct {
	Spec string // the full spec handed to ParseRuleSet
	Pos  int    // byte offset into Spec
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("steelnetd: rule spec %q: pos %d: %s", e.Spec, e.Pos, e.Msg)
}

// ParseRuleSet parses a semicolon-separated list of rule specs, each
//
//	kind:subject(<|>)threshold->backend:topic
//
// e.g. "latency:press-sink>250µs->kafka:alerts",
// "loss:*>0.01->mqtt:plant/loss", "breach:press-sink>0->log:slo".
// Thresholds are Go durations for latency/jitter and floats for
// tag/loss/breach. Whitespace around tokens is accepted and dropped
// from the canonical String form. Rules separate on ';' (not ',' like
// fault plans) because tag subjects may contain commas inside
// Prometheus label lists. An empty or blank spec is an empty set.
func ParseRuleSet(spec string) (RuleSet, error) {
	rs := RuleSet{Name: spec}
	if strings.TrimSpace(spec) == "" {
		return rs, nil
	}
	off := 0
	for _, part := range strings.SplitAfter(spec, ";") {
		body := strings.TrimSuffix(part, ";")
		r, err := parseRule(spec, body, off)
		if err != nil {
			return RuleSet{}, err
		}
		rs.Rules = append(rs.Rules, r)
		off += len(part)
	}
	return rs, nil
}

// parseRule parses one rule out of full[base:]. Positions in errors are
// relative to full, so set errors point into the set spec.
func parseRule(full, s string, base int) (Rule, error) {
	var r Rule
	fail := func(pos int, format string, args ...any) (Rule, error) {
		return Rule{}, &ParseError{Spec: full, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	arrow := strings.LastIndex(s, "->")
	if arrow < 0 {
		return fail(base+len(s), "missing \"->\" action")
	}
	cond, action := s[:arrow], s[arrow+2:]

	// Condition: kind ":" subject op threshold. The op is the last
	// '<' or '>' in the condition, so subjects may contain comparison
	// characters (quoted label values).
	colon := strings.Index(cond, ":")
	if colon < 0 {
		return fail(base, "condition %q missing \"kind:\"", cond)
	}
	kindStr := strings.TrimSpace(cond[:colon])
	kind, ok := CondKindFromString(kindStr)
	if !ok {
		return fail(base, "unknown condition kind %q", kindStr)
	}
	r.Kind = kind
	opIdx := strings.LastIndexAny(cond, "<>")
	if opIdx < colon {
		return fail(base+len(cond), "condition %q missing comparison (< or >)", cond)
	}
	r.Op = cond[opIdx]
	r.Subject = strings.TrimSpace(cond[colon+1 : opIdx])
	if r.Subject == "" {
		return fail(base+colon+1, "empty subject")
	}
	thresholdStr := strings.TrimSpace(cond[opIdx+1:])
	if thresholdStr == "" {
		return fail(base+opIdx+1, "empty threshold")
	}
	if kind.durational() {
		d, err := time.ParseDuration(thresholdStr)
		if err != nil {
			return fail(base+opIdx+1, "bad duration threshold %q", thresholdStr)
		}
		r.Bound = d
	} else {
		v, err := strconv.ParseFloat(thresholdStr, 64)
		if err != nil {
			return fail(base+opIdx+1, "bad threshold %q", thresholdStr)
		}
		if kind == CondLoss && !(v >= 0 && v <= 1) {
			return fail(base+opIdx+1, "loss fraction %v outside [0,1]", v)
		}
		r.Threshold = v
	}

	// Action: backend ":" topic.
	backend, topic, ok := strings.Cut(action, ":")
	if !ok {
		return fail(base+arrow+2, "action %q missing \"backend:topic\"", action)
	}
	r.Backend = strings.TrimSpace(backend)
	r.Topic = strings.TrimSpace(topic)
	if r.Backend == "" {
		return fail(base+arrow+2, "empty backend")
	}
	if r.Topic == "" {
		return fail(base+arrow+2+len(backend)+1, "empty topic")
	}
	for _, tok := range []struct {
		name, v string
		pos     int
	}{
		{"subject", r.Subject, base + colon + 1},
		{"backend", r.Backend, base + arrow + 2},
		{"topic", r.Topic, base + arrow + 2 + len(backend) + 1},
	} {
		if i := strings.IndexAny(tok.v, ";\n"); i >= 0 {
			return fail(tok.pos+i, "%s %q contains %q", tok.name, tok.v, tok.v[i])
		}
	}
	if strings.ContainsAny(r.Backend, "<>: \t") {
		return fail(base+arrow+2, "backend %q contains reserved characters", r.Backend)
	}
	if strings.ContainsAny(r.Topic, "<> \t") {
		return fail(base+arrow+2+len(backend)+1, "topic %q contains reserved characters", r.Topic)
	}
	return r, nil
}

// measure reduces a sample to the rule's measured value. ok is false
// when the subject is absent from the sample (condition false).
func (r Rule) measure(s *core.Sample) (v float64, ok bool) {
	switch r.Kind {
	case CondTag:
		for _, t := range s.Tags {
			if t.Name == r.Subject {
				return t.Value, true
			}
		}
		return 0, false
	case CondLatency, CondJitter:
		for _, p := range s.Digests {
			if r.Subject != "*" && p.Sink != r.Subject {
				continue
			}
			m := p.MeanNS()
			if r.Kind == CondJitter {
				m = p.MeanJitterNS()
			}
			if !ok || m > v {
				v, ok = m, true
			}
		}
		return v, ok
	case CondLoss:
		for _, l := range s.Loss {
			if r.Subject != "*" && l.Sink != r.Subject {
				continue
			}
			if f := l.Fraction(); !ok || f > v {
				v, ok = f, true
			}
		}
		return v, ok
	case CondBreach:
		n := 0
		for _, b := range s.Breaches {
			if r.Subject == "*" || b.Sink == r.Subject {
				n++
			}
		}
		return float64(n), true
	}
	return 0, false
}

// eval reports whether the condition holds for s and the measured value.
func (r Rule) eval(s *core.Sample) (bool, float64) {
	v, ok := r.measure(s)
	if !ok {
		return false, v
	}
	bound := r.Threshold
	if r.Kind.durational() {
		bound = float64(r.Bound.Nanoseconds())
	}
	if r.Op == '<' {
		return v < bound, v
	}
	return v > bound, v
}

// Firing is one rule firing: the edge where a condition went from
// false to true. Fields are pure functions of the run spec, so firing
// streams are byte-identical across replays.
type Firing struct {
	// Rule is the canonical spec of the rule that fired.
	Rule string `json:"rule"`
	// Seq and SimNS locate the firing sample.
	Seq   uint64 `json:"seq"`
	SimNS int64  `json:"sim_ns"`
	// Value is the measured value that crossed the threshold.
	Value float64 `json:"value"`
	// Backend and Topic address the northbound publish.
	Backend string `json:"-"`
	Topic   string `json:"-"`
}

// Engine evaluates a rule set over a run's sample stream with
// edge-triggered firing. Not safe for concurrent use; each run owns one
// engine on its stepping goroutine.
type Engine struct {
	rules []Rule
	specs []string // canonical String() per rule, rendered once
	prev  []bool   // last evaluation; a firing needs prev false
}

// NewEngine builds an engine for rs. All conditions start false, so a
// condition already true at the first sample fires on it.
func NewEngine(rs RuleSet) *Engine {
	e := &Engine{rules: rs.Rules, specs: make([]string, len(rs.Rules)), prev: make([]bool, len(rs.Rules))}
	for i, r := range rs.Rules {
		e.specs[i] = r.String()
	}
	return e
}

// Eval evaluates every rule against s and returns the firings (rules
// whose condition went false→true), in rule order.
func (e *Engine) Eval(s *core.Sample) []Firing {
	var fs []Firing
	for i, r := range e.rules {
		hold, v := r.eval(s)
		if hold && !e.prev[i] {
			fs = append(fs, Firing{
				Rule: e.specs[i], Seq: s.Seq, SimNS: s.SimNS, Value: v,
				Backend: r.Backend, Topic: r.Topic,
			})
		}
		e.prev[i] = hold
	}
	return fs
}
