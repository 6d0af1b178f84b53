package intnet

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"steelnet/internal/telemetry"
)

// Recorder is the always-on flight recorder: a fixed-size ring of the
// most recent trace events per component, fed live off a Tracer's
// observer hook. Unlike the tracer's full log it is bounded — a
// multi-hour run costs the same memory as a short one — and its job is
// the post-mortem dump: a fault injection or an SLO breach is logged as
// a trigger, and at the end of a run (-flightrec) WriteJSONL writes the
// triggers and the last moments of every component's life,
// deterministically, to JSONL.
type Recorder struct {
	rings map[string]*eventRing
	order []string // first-seen node order

	// triggers lists dump-worthy moments in occurrence order.
	triggers []Trigger
}

// Trigger is one dump-worthy moment.
type Trigger struct {
	Reason string `json:"reason"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
	AtNS   int64  `json:"at_ns"`
}

// eventRing holds one node's most recent events.
type eventRing struct {
	buf  []telemetry.Event
	head int
	n    int
}

func (r *eventRing) push(e telemetry.Event) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
}

// events returns the ring's contents oldest-first.
func (r *eventRing) events() []telemetry.Event {
	out := make([]telemetry.Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// RecorderDepth is the per-node ring size: enough to cover several
// control cycles of every experiment without the recorder's memory
// mattering.
const RecorderDepth = 256

// NewRecorder creates a recorder keeping the last RecorderDepth events
// per component.
func NewRecorder() *Recorder {
	return &Recorder{rings: make(map[string]*eventRing)}
}

// Attach installs the recorder as tr's event observer. Fault
// injections and SLO breaches auto-trigger.
func (r *Recorder) Attach(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	tr.SetObserver(r.Observe)
}

// Observe routes one event into its node's ring and fires automatic
// triggers. It is the telemetry observer the recorder installs, but can
// also be called directly when composing observers by hand.
func (r *Recorder) Observe(e telemetry.Event) {
	ring := r.rings[e.Node]
	if ring == nil {
		ring = &eventRing{buf: make([]telemetry.Event, RecorderDepth)}
		r.rings[e.Node] = ring
		r.order = append(r.order, e.Node)
	}
	ring.push(e)
	switch e.Kind {
	case telemetry.KindFaultInject:
		r.triggers = append(r.triggers, Trigger{Reason: "fault-inject", Node: e.Node, Detail: e.Detail, AtNS: e.T})
	case telemetry.KindSLOBreach:
		r.triggers = append(r.triggers, Trigger{Reason: "slo-breach", Node: e.Node, Detail: e.Detail, AtNS: e.T})
	}
}

// Empty reports whether the recorder has seen no events and no
// triggers — the CLI uses it to decide whether a merge-based sweep
// needs a catch-up feed from the retained trace.
func (r *Recorder) Empty() bool { return len(r.order) == 0 && len(r.triggers) == 0 }

// jsonTrigger is the dump wire form of a trigger line.
type jsonTrigger struct {
	Type string `json:"type"` // "trigger"
	Trigger
}

// jsonRecorded is the dump wire form of one recorded event.
type jsonRecorded struct {
	Type  string `json:"type"` // "event"
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Cause string `json:"cause,omitempty"`
	Node  string `json:"node,omitempty"`
	Port  int32  `json:"port,omitempty"`
	Frame uint64 `json:"frame,omitempty"`
	Prio  uint8  `json:"prio,omitempty"`
	Aux   int64  `json:"aux,omitempty"`
	// Detail carries fault specs / SLO specs for those event kinds.
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL dumps the recorder: every trigger in occurrence order,
// then every node's ring (sorted by node name) oldest event first. The
// output is deterministic — resume-equivalence demands byte identity.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, t := range r.triggers {
		if err := enc.Encode(jsonTrigger{Type: "trigger", Trigger: t}); err != nil {
			return err
		}
	}
	nodes := append([]string(nil), r.order...)
	sort.Strings(nodes)
	for _, node := range nodes {
		for _, e := range r.rings[node].events() {
			if err := enc.Encode(jsonRecorded{
				Type: "event", T: e.T, Kind: e.Kind.String(), Cause: e.Cause.String(),
				Node: e.Node, Port: e.Port, Frame: e.Frame, Prio: e.Prio,
				Aux: e.Aux, Detail: e.Detail,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// DumpToFile writes the recorder to path (atomically enough for CI:
// full write then close).
func (r *Recorder) DumpToFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
