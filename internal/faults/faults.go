// Package faults is a deterministic fault-injection layer for the
// simulator: the "fail fast, recover faster" discipline the paper says
// IT operations bring to OT networks, turned into a first-class,
// replayable subsystem. A Plan is a list of typed fault events — link
// flaps, sustained loss or corruption bursts on a port, switch
// crash-restarts and host (vPLC) stalls — each with an injection time
// and an optional recovery delay. An Injector binds the plan's symbolic
// target names to live simulation objects and schedules every phase on
// the sim.Engine, so a scenario plus a seed replays byte-identically:
// fault injection is part of the experiment, not test scaffolding
// around it.
//
// Plans come from three places, all equivalent: literal Go values
// (tests), Generate (randomized chaos plans from a seeded RNG), and
// ParsePlan (the -faults CLI spec), so a failover trace seen once can
// be re-run from its one-line spec.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"steelnet/internal/sim"
)

// Kind is a fault event type.
type Kind int

// Fault kinds. Each kind targets one registry (links, ports, switches,
// hosts) and has an inject phase plus, when Duration > 0, a
// recover phase.
const (
	// KindLinkFlap takes a link down at At and back up after Duration
	// (Duration 0 = a permanent cut).
	KindLinkFlap Kind = iota
	// KindLossBurst drops each frame leaving the target port with
	// probability Magnitude for Duration (0 = forever).
	KindLossBurst
	// KindCorruptBurst flips a payload byte of each frame delivered
	// from the target port with probability Magnitude for Duration.
	KindCorruptBurst
	// KindSwitchCrash crashes a switch at At (all frames die, learned
	// FIB is lost) and restarts it cold after Duration (0 = forever).
	KindSwitchCrash
	// KindHostStall crashes a host (vPLC VM kill: traffic stops with no
	// goodbye) and restarts it after Duration (0 = forever).
	KindHostStall
	numKinds
)

var kindNames = [...]string{
	KindLinkFlap:     "linkflap",
	KindLossBurst:    "loss",
	KindCorruptBurst: "corrupt",
	KindSwitchCrash:  "switchcrash",
	KindHostStall:    "hoststall",
}

// String returns the kind's spec name (the one ParsePlan accepts).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString resolves a spec name to a Kind.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	// At is the injection time, as an offset from when the plan is
	// applied (plans are relative so the same plan composes with any
	// scenario timeline).
	At time.Duration
	// Kind selects the fault type and thereby the target registry.
	Kind Kind
	// Target names the object to fault; it must be registered with the
	// Injector under exactly this name.
	Target string
	// Duration is the time until the recovery phase. Zero means the
	// fault is permanent.
	Duration time.Duration
	// Magnitude parameterizes the fault: loss/corruption probability
	// (0..1).
	Magnitude float64
}

// String renders the event in ParsePlan's spec syntax.
func (ev Event) String() string {
	s := fmt.Sprintf("%s:%s@%s", ev.Kind, ev.Target, ev.At)
	if ev.Duration > 0 {
		s += "+" + ev.Duration.String()
	}
	if ev.Magnitude != 0 {
		s += "*" + strconv.FormatFloat(ev.Magnitude, 'g', -1, 64)
	}
	return s
}

// Plan is an ordered fault scenario.
type Plan struct {
	// Name labels the plan in traces and tables.
	Name string
	// Events fire in At order; ties break in slice order.
	Events []Event
}

// Empty reports whether the plan has no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// String renders the plan as a comma-separated spec ParsePlan accepts.
func (p Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ",")
}

// Sort orders events by (At, original order), the order Apply injects
// them in. Generate and ParsePlan return sorted plans.
func (p *Plan) Sort() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// ParsePlan parses a comma-separated fault spec:
//
//	kind:target@at[+duration][*magnitude]
//
// e.g. "hoststall:vplc1@1.3s" (Fig. 5's crash),
// "linkflap:ring2@500ms+1s,loss:dev-dp@0s+3s*0.05". Times use Go
// duration syntax; magnitude is a float (the loss or corruption
// probability).
func ParsePlan(spec string) (Plan, error) {
	p := Plan{Name: spec}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return Plan{}, err
		}
		p.Events = append(p.Events, ev)
	}
	p.Sort()
	return p, nil
}

func parseEvent(s string) (Event, error) {
	var ev Event
	kindTarget, rest, ok := strings.Cut(s, "@")
	if !ok {
		return ev, fmt.Errorf("faults: event %q missing @time", s)
	}
	kindStr, target, ok := strings.Cut(kindTarget, ":")
	if !ok {
		return ev, fmt.Errorf("faults: event %q missing kind:target", s)
	}
	kind, ok := KindFromString(kindStr)
	if !ok {
		return ev, fmt.Errorf("faults: unknown fault kind %q", kindStr)
	}
	ev.Kind = kind
	ev.Target = target
	if ev.Target == "" {
		return ev, fmt.Errorf("faults: event %q has empty target", s)
	}
	if magStr, found := cutLast(&rest, "*"); found {
		mag, err := strconv.ParseFloat(magStr, 64)
		if err != nil {
			return ev, fmt.Errorf("faults: event %q: bad magnitude: %v", s, err)
		}
		if math.IsNaN(mag) || math.IsInf(mag, 0) {
			return ev, fmt.Errorf("faults: event %q: magnitude %v is not finite", s, mag)
		}
		ev.Magnitude = mag
	}
	if durStr, found := cutLast(&rest, "+"); found {
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return ev, fmt.Errorf("faults: event %q: bad duration: %v", s, err)
		}
		ev.Duration = d
	}
	at, err := time.ParseDuration(rest)
	if err != nil {
		return ev, fmt.Errorf("faults: event %q: bad time: %v", s, err)
	}
	if at < 0 || ev.Duration < 0 {
		return ev, fmt.Errorf("faults: event %q: negative time", s)
	}
	ev.At = at
	return ev, nil
}

// cutLast splits off the suffix after the last sep, mutating s to the
// prefix. It reports whether sep was present.
func cutLast(s *string, sep string) (string, bool) {
	i := strings.LastIndex(*s, sep)
	if i < 0 {
		return "", false
	}
	suffix := (*s)[i+len(sep):]
	*s = (*s)[:i]
	return suffix, true
}

// Validate checks event fields without resolving targets: known kinds,
// non-negative times, finite magnitudes, probabilities in [0,1].
func (p Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.Kind < 0 || ev.Kind >= numKinds {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(ev.Kind))
		}
		if ev.Target == "" {
			return fmt.Errorf("faults: event %d: empty target", i)
		}
		if ev.At < 0 || ev.Duration < 0 {
			return fmt.Errorf("faults: event %d: negative time", i)
		}
		if math.IsNaN(ev.Magnitude) || math.IsInf(ev.Magnitude, 0) {
			return fmt.Errorf("faults: event %d: magnitude %v is not finite", i, ev.Magnitude)
		}
		switch ev.Kind {
		case KindLossBurst, KindCorruptBurst:
			if ev.Magnitude < 0 || ev.Magnitude > 1 {
				return fmt.Errorf("faults: event %d: probability %v outside [0,1]", i, ev.Magnitude)
			}
		}
	}
	return nil
}

// Targets of the fault kinds. A simulation object is registered under a
// name and faulted through the narrowest interface its kinds need;
// simnet.Link, simnet.Port, simnet.Switch and plc.Controller satisfy
// these without adapters.

// Link can be taken down and brought back up (KindLinkFlap).
type Link interface {
	SetUp(up bool)
}

// Port can drop or corrupt a fraction of its egress traffic
// (KindLossBurst, KindCorruptBurst).
type Port interface {
	SetLossRate(p float64)
	SetCorruptRate(p float64)
}

// Switch can crash and restart cold (KindSwitchCrash).
type Switch interface {
	Fail()
	Restart()
}

// Host can crash and restart cold (KindHostStall).
type Host interface {
	Fail()
	Restart()
}

// Phase labels one half of a fault's lifecycle.
type Phase int

// Phases.
const (
	PhaseInject Phase = iota
	PhaseRecover
)

// String names the phase.
func (p Phase) String() string {
	if p == PhaseInject {
		return "inject"
	}
	return "recover"
}

// Record is one executed fault phase, for traces and assertions.
type Record struct {
	At    sim.Time
	Phase Phase
	Event Event
}

// String renders the record as one trace line.
func (r Record) String() string {
	return fmt.Sprintf("%12v  %-7s  %s", r.At, r.Phase, r.Event)
}
