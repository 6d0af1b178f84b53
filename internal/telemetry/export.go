package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonEvent is the JSONL wire form of Event: kinds and causes travel as
// their stable string names, zero-valued fields are omitted, so traces
// stay greppable and diff-friendly.
type jsonEvent struct {
	T      int64  `json:"t"`
	Kind   string `json:"kind"`
	Cause  string `json:"cause,omitempty"`
	Node   string `json:"node,omitempty"`
	Port   int32  `json:"port,omitempty"`
	Frame  uint64 `json:"frame,omitempty"`
	Prio   uint8  `json:"prio,omitempty"`
	Aux    int64  `json:"aux,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL writes one JSON object per event, one per line, in firing
// order. ReadJSONL inverts it exactly.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonEvent{
			T: e.T, Kind: e.Kind.String(), Cause: e.Cause.String(),
			Node: e.Node, Port: e.Port, Frame: e.Frame, Prio: e.Prio,
			Aux: e.Aux, Detail: e.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace back into events. Unknown kinds or
// causes are an error: a trace that cannot round-trip is corrupt.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for i := 0; ; i++ {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", i+1, err)
		}
		k, ok := KindFromString(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: trace line %d: unknown kind %q", i+1, je.Kind)
		}
		c, ok := CauseFromString(je.Cause)
		if !ok {
			return nil, fmt.Errorf("telemetry: trace line %d: unknown cause %q", i+1, je.Cause)
		}
		out = append(out, Event{
			T: je.T, Kind: k, Cause: c, Node: je.Node, Port: je.Port,
			Frame: je.Frame, Prio: je.Prio, Aux: je.Aux, Detail: je.Detail,
		})
	}
}

// chromeEvent is one entry of the Chrome trace-event format, the JSON
// that chrome://tracing and ui.perfetto.dev load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Reserved lanes: fault spans and SLO breach spans. Node lanes start
// after them.
const (
	faultTid = 0
	sloTid   = 1
)

// gatewayPid is the Chrome-trace process id for steelnetd's own lanes
// (HTTP requests, run windows, rule firings); pid 1 is the simulation.
const gatewayPid = 2

// WriteChromeTrace renders the events as a Chrome trace-event JSON
// document: one timeline lane per node (in order of first appearance),
// plus a dedicated "faults" lane where inject/recover pairs become
// duration spans — a chaos run reads as injection → degradation →
// recovery at a glance — and an "slo" lane where watchdog breach/clear
// pairs become spans the same way. Serialization occupancy (TxStart)
// renders as duration slices; everything else as instants.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tids := map[string]int{}
	tid := func(node string) int {
		id, ok := tids[node]
		if !ok {
			id = len(tids) + 2 // 0 is the fault lane, 1 the SLO lane
			tids[node] = id
		}
		return id
	}

	// Pair each inject with the next recover for the same target+spec,
	// and each SLO breach with the next clear the same way.
	recoverAt := make([]int64, len(events))
	pending := map[string][]int{}
	for i, e := range events {
		switch e.Kind {
		case KindFaultInject, KindSLOBreach:
			recoverAt[i] = -1
			key := e.Kind.String() + "\x00" + e.Node + "\x00" + e.Detail
			pending[key] = append(pending[key], i)
		case KindFaultRecover:
			key := KindFaultInject.String() + "\x00" + e.Node + "\x00" + e.Detail
			if q := pending[key]; len(q) > 0 {
				recoverAt[q[0]] = e.T
				pending[key] = q[1:]
			}
		case KindSLOClear:
			key := KindSLOBreach.String() + "\x00" + e.Node + "\x00" + e.Detail
			if q := pending[key]; len(q) > 0 {
				recoverAt[q[0]] = e.T
				pending[key] = q[1:]
			}
		}
	}

	out := chromeTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "steelnet"},
	}, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: faultTid,
		Args: map[string]any{"name": "faults"},
	}, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: sloTid,
		Args: map[string]any{"name": "slo"},
	})
	seen := map[string]bool{}
	lane := func(node string) int {
		id := tid(node)
		if !seen[node] {
			seen[node] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
				Args: map[string]any{"name": node},
			})
		}
		return id
	}
	// Gateway-plane lanes live in their own process (pid 2,
	// "steelnetd"), above the sim lanes, with their own tid space. The
	// process metadata is emitted lazily so sim-only traces keep their
	// exact historical form.
	gwTids := map[string]int{}
	gwLane := func(node string) int {
		id, ok := gwTids[node]
		if ok {
			return id
		}
		if len(gwTids) == 0 {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: gatewayPid,
				Args: map[string]any{"name": "steelnetd"},
			})
		}
		id = len(gwTids)
		gwTids[node] = id
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: gatewayPid, Tid: id,
			Args: map[string]any{"name": node},
		})
		return id
	}
	for i, e := range events {
		ts := float64(e.T) / 1e3
		switch e.Kind {
		case KindFaultInject:
			ce := chromeEvent{Name: e.Detail, Ts: ts, Pid: 1, Tid: faultTid, Cat: "fault",
				Args: map[string]any{"target": e.Node}}
			if recoverAt[i] >= 0 {
				ce.Ph = "X"
				ce.Dur = float64(recoverAt[i]-e.T) / 1e3
			} else {
				ce.Ph = "i"
				ce.S = "g"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		case KindSLOBreach:
			ce := chromeEvent{Name: e.Detail, Ts: ts, Pid: 1, Tid: sloTid, Cat: "slo",
				Args: map[string]any{"target": e.Node, "measured": e.Aux}}
			if recoverAt[i] >= 0 {
				ce.Ph = "X"
				ce.Dur = float64(recoverAt[i]-e.T) / 1e3
			} else {
				ce.Ph = "i"
				ce.S = "g"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		case KindFaultRecover, KindSLOClear:
			// Represented by the matching inject/breach span end;
			// unmatched clears (breach predates the trace) are elided.
			continue
		case KindShardWindow:
			// Profiler output: each shard gets its own lane ("shard/N")
			// of window-execution spans, so a sharded run reads as
			// parallel activity bands punctuated by barriers.
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "window", Ph: "X", Ts: ts, Dur: float64(e.Aux) / 1e3,
				Pid: 1, Tid: lane(e.Node), Cat: "shard",
				Args: map[string]any{"events": e.Frame},
			})
		case KindBarrier:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "barrier", Ph: "i", S: "p", Ts: ts,
				Pid: 1, Tid: lane(e.Node), Cat: "shard",
				Args: map[string]any{"msgs": e.Aux},
			})
		case KindRunWindow:
			// One hosted run's publish slice: a duration span on the
			// run's gateway lane, so the fleet reads as stacked bands of
			// slice activity above the sim lanes.
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "slice", Ph: "X", Ts: ts, Dur: float64(e.Aux) / 1e3,
				Pid: gatewayPid, Tid: gwLane(e.Node), Cat: "gateway",
				Args: map[string]any{"seq": e.Frame},
			})
		case KindRuleFiring:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Detail, Ph: "i", S: "t", Ts: ts,
				Pid: gatewayPid, Tid: gwLane(e.Node), Cat: "rule",
				Args: map[string]any{"seq": e.Aux},
			})
		case KindHTTPRequest:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Detail, Ph: "X", Ts: ts, Dur: float64(e.Aux) / 1e3,
				Pid: gatewayPid, Tid: gwLane(e.Node), Cat: "http",
				Args: map[string]any{"status": e.Frame},
			})
		case KindCrossShard:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "cross-shard", Ph: "i", S: "t", Ts: ts,
				Pid: 1, Tid: lane(e.Node), Cat: "frame",
				Args: map[string]any{
					"frame": e.Frame, "port": e.Port, "prio": e.Prio,
					"shards": FormatShardAux(e.Aux),
				},
			})
		default:
			id := lane(e.Node)
			name := e.Kind.String()
			if e.Cause != CauseNone {
				name += ":" + e.Cause.String()
			}
			ce := chromeEvent{Name: name, Ts: ts, Pid: 1, Tid: id, Cat: "frame",
				Args: map[string]any{"frame": e.Frame, "port": e.Port, "prio": e.Prio}}
			if e.Kind == KindTxStart {
				ce.Ph = "X"
				ce.Dur = float64(e.Aux) / 1e3
			} else {
				ce.Ph = "i"
				ce.S = "t"
				if e.Aux != 0 {
					ce.Args["aux"] = e.Aux
				}
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
