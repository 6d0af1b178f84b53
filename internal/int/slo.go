package intnet

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/telemetry"
)

// SLO objectives are declared with a compact spec grammar in the style
// of internal/faults plans:
//
//	kind:target<bound[,kind:target<bound...]
//
// where kind is latency, jitter or loss; target is a sink node name or
// "*" for every sink; and bound is a duration (latency/jitter) or a
// loss fraction (loss). Examples:
//
//	latency:vplc1<500µs          p0 latency objective on one sink
//	jitter:*<50µs,loss:*<0.01    network-wide jitter + 1% loss budget
//
// Parse and String round-trip exactly, so a plan can be logged, stored
// in a checkpoint config, and re-parsed without drift.

// ObjectiveKind selects what an objective bounds.
type ObjectiveKind uint8

// Objective kinds.
const (
	SLOLatency ObjectiveKind = iota
	SLOJitter
	SLOLoss
	numObjectiveKinds
)

var objectiveKindNames = [numObjectiveKinds]string{"latency", "jitter", "loss"}

// String returns the kind's spec-grammar name.
func (k ObjectiveKind) String() string {
	if int(k) < len(objectiveKindNames) {
		return objectiveKindNames[k]
	}
	return "unknown"
}

// Objective is one declarative service-level objective.
type Objective struct {
	Kind ObjectiveKind
	// Target is the sink node the objective applies to, or "*" for all.
	Target string
	// Bound is the latency/jitter ceiling (those kinds).
	Bound time.Duration
	// Frac is the loss-fraction ceiling (SLOLoss).
	Frac float64
}

// Matches reports whether the objective applies to observations at sink.
func (o Objective) Matches(sink string) bool {
	return o.Target == "*" || o.Target == sink
}

// String renders the objective in spec grammar.
func (o Objective) String() string {
	if o.Kind == SLOLoss {
		return fmt.Sprintf("%s:%s<%s", o.Kind, o.Target, strconv.FormatFloat(o.Frac, 'g', -1, 64))
	}
	return fmt.Sprintf("%s:%s<%s", o.Kind, o.Target, o.Bound)
}

// ParseObjective parses one spec-grammar objective.
func ParseObjective(s string) (Objective, error) {
	head, bound, ok := strings.Cut(s, "<")
	if !ok {
		return Objective{}, fmt.Errorf("intnet: objective %q: missing '<bound'", s)
	}
	kindStr, target, ok := strings.Cut(head, ":")
	if !ok {
		return Objective{}, fmt.Errorf("intnet: objective %q: missing 'kind:target'", s)
	}
	var o Objective
	found := false
	for i, n := range objectiveKindNames {
		if n == kindStr {
			o.Kind = ObjectiveKind(i)
			found = true
			break
		}
	}
	if !found {
		return Objective{}, fmt.Errorf("intnet: objective %q: unknown kind %q", s, kindStr)
	}
	if target == "" {
		return Objective{}, fmt.Errorf("intnet: objective %q: empty target", s)
	}
	o.Target = target
	if o.Kind == SLOLoss {
		f, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			return Objective{}, fmt.Errorf("intnet: objective %q: bad loss fraction: %v", s, err)
		}
		if !(f > 0 && f < 1) { // NaN fails both comparisons
			return Objective{}, fmt.Errorf("intnet: objective %q: loss fraction must be in (0,1)", s)
		}
		o.Frac = f
		return o, nil
	}
	d, err := time.ParseDuration(bound)
	if err != nil {
		return Objective{}, fmt.Errorf("intnet: objective %q: bad duration: %v", s, err)
	}
	if d <= 0 {
		return Objective{}, fmt.Errorf("intnet: objective %q: non-positive bound", s)
	}
	o.Bound = d
	return o, nil
}

// SLOPlan is an ordered list of objectives.
type SLOPlan []Objective

// String renders the plan as a comma-joined spec; ParsePlan inverts it.
func (p SLOPlan) String() string {
	parts := make([]string, len(p))
	for i, o := range p {
		parts[i] = o.String()
	}
	return strings.Join(parts, ",")
}

// ParseSLOPlan parses a comma-joined objective list ("" is an empty
// plan).
func ParseSLOPlan(s string) (SLOPlan, error) {
	if s == "" {
		return nil, nil
	}
	var p SLOPlan
	for _, part := range strings.Split(s, ",") {
		o, err := ParseObjective(part)
		if err != nil {
			return nil, err
		}
		p = append(p, o)
	}
	return p, nil
}

// Breach is one watchdog excursion: an objective exceeded at a sink,
// open until the matching clear. ClearedAtNS is -1 while open.
type Breach struct {
	Objective   string `json:"objective"`
	Sink        string `json:"sink"`
	AtNS        int64  `json:"at_ns"`
	Measured    int64  `json:"measured"`
	ClearedAtNS int64  `json:"cleared_at_ns"`
}

// stateKey identifies one objective's evaluation state at one sink.
type stateKey struct {
	obj  int
	sink string
}

// objState is the hysteresis state of one (objective, sink) pair.
type objState struct {
	inBreach bool
	over     int // consecutive observations exceeding the bound
	under    int // consecutive observations within the bound
	openIdx  int // index into breaches of the open excursion
	received uint64
	lost     uint64
}

// Watchdog evaluates an SLOPlan against the collector's observation
// stream. Breach state uses consecutive-observation hysteresis: an
// objective flips to breached after Consecutive observations over the
// bound and clears after the same number within it, so a single
// outlier frame does not flap the state. Breach and clear transitions
// are emitted to the tracer as spans in the Perfetto "slo" lane.
type Watchdog struct {
	plan     SLOPlan
	specs    []string // cached Objective.String per objective
	tr       *telemetry.Tracer
	states   map[stateKey]*objState
	skeys    []stateKey // first-seen order, for deterministic folds
	breaches []Breach
}

// Consecutive is the hysteresis depth: how many observations in a row
// open a breach, and how many close it.
const Consecutive = 3

// NewWatchdog builds a watchdog for plan; tr may be nil (breaches are
// still logged).
func NewWatchdog(plan SLOPlan, tr *telemetry.Tracer) *Watchdog {
	w := &Watchdog{
		plan:   plan,
		tr:     tr,
		states: make(map[stateKey]*objState),
	}
	for _, o := range plan {
		w.specs = append(w.specs, o.String())
	}
	return w
}

// Attach makes the watchdog c's observation subscriber, replacing any
// observer already installed.
func (w *Watchdog) Attach(c *Collector) { c.OnSink = w.Observe }

// Observe evaluates one observation against every matching objective.
func (w *Watchdog) Observe(obs Observation) {
	for i, o := range w.plan {
		if !o.Matches(obs.Sink) {
			continue
		}
		key := stateKey{obj: i, sink: obs.Sink}
		st := w.states[key]
		if st == nil {
			st = &objState{openIdx: -1}
			w.states[key] = st
			w.skeys = append(w.skeys, key)
		}
		var measured int64
		var exceeded bool
		switch o.Kind {
		case SLOLatency:
			measured = obs.E2ENS
			exceeded = measured > int64(o.Bound)
		case SLOJitter:
			measured = obs.JitterNS
			exceeded = measured > int64(o.Bound)
		case SLOLoss:
			st.received++
			st.lost += obs.NewlyLost
			frac := float64(st.lost) / float64(st.lost+st.received)
			measured = int64(frac * 1e6) // lost per million, for the trace
			exceeded = st.lost > 0 && frac > o.Frac
		}
		w.step(st, i, obs.Sink, obs.AtNS, measured, exceeded)
	}
}

// step advances one state's hysteresis and records transitions.
func (w *Watchdog) step(st *objState, obj int, sink string, atNS, measured int64, exceeded bool) {
	if exceeded {
		st.over++
		st.under = 0
		if !st.inBreach && st.over >= Consecutive {
			st.inBreach = true
			st.openIdx = len(w.breaches)
			w.breaches = append(w.breaches, Breach{
				Objective: w.specs[obj], Sink: sink,
				AtNS: atNS, Measured: measured, ClearedAtNS: -1,
			})
			w.tr.SLOBreach(sink, w.specs[obj], measured)
		}
		return
	}
	st.under++
	st.over = 0
	if st.inBreach && st.under >= Consecutive {
		st.inBreach = false
		w.breaches[st.openIdx].ClearedAtNS = atNS
		st.openIdx = -1
		w.tr.SLOClear(sink, w.specs[obj])
	}
}

// Absorb merges another watchdog's hysteresis states and breach log
// into w, preserving other's first-seen state order and onset order.
// Sharded runs keep one watchdog per shard (hysteresis state is
// per-(objective, sink) and every sink host lives on exactly one
// shard), then absorb them in fixed shard order — the combined log is
// deterministic for any worker count, exactly like Collector.Absorb.
// The two watchdogs must track disjoint sinks and share the same plan;
// violating either makes the merged hysteresis meaningless, so Absorb
// panics.
func (w *Watchdog) Absorb(other *Watchdog) {
	if other == nil {
		return
	}
	if other.plan.String() != w.plan.String() {
		panic("intnet: Absorb across different SLO plans")
	}
	offset := len(w.breaches)
	for _, key := range other.skeys {
		if _, dup := w.states[key]; dup {
			panic(fmt.Sprintf("intnet: Absorb saw sink %q under objective %d in both watchdogs; shards must own disjoint sinks", key.sink, key.obj))
		}
		st := *other.states[key]
		if st.openIdx >= 0 {
			st.openIdx += offset
		}
		w.states[key] = &st
		w.skeys = append(w.skeys, key)
	}
	w.breaches = append(w.breaches, other.breaches...)
}

// Breaches returns every recorded excursion in onset order (open ones
// have ClearedAtNS == -1).
func (w *Watchdog) Breaches() []Breach { return w.breaches }

// WriteBreachLog exports the breach log as JSON lines in onset order.
func (w *Watchdog) WriteBreachLog(out io.Writer) error {
	enc := json.NewEncoder(out)
	for _, b := range w.breaches {
		if err := enc.Encode(b); err != nil {
			return err
		}
	}
	return nil
}

// FoldState folds the watchdog's plan, per-state hysteresis and breach
// log in deterministic order.
func (w *Watchdog) FoldState(d *checkpoint.Digest) {
	d.Str(w.plan.String())
	d.Int(Consecutive) // part of the digest format
	d.Int(len(w.skeys))
	for _, key := range w.skeys {
		st := w.states[key]
		d.Int(key.obj)
		d.Str(key.sink)
		d.Bool(st.inBreach)
		d.Int(st.over)
		d.Int(st.under)
		d.Int(st.openIdx)
		d.U64(st.received)
		d.U64(st.lost)
	}
	d.Int(len(w.breaches))
	for _, b := range w.breaches {
		d.Str(b.Objective)
		d.Str(b.Sink)
		d.I64(b.AtNS)
		d.I64(b.Measured)
		d.I64(b.ClearedAtNS)
	}
}
