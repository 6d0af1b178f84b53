package faults

import (
	"fmt"

	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
)

// Injector binds plan target names to live simulation objects and
// schedules fault phases on the engine. One injector serves one engine
// (one scenario cell); like everything else in a cell it is not safe
// for concurrent use.
type Injector struct {
	engine   *sim.Engine
	links    map[string]Link
	ports    map[string]Port
	switches map[string]Switch
	hosts    map[string]Host

	// Trace records every executed phase in firing order.
	Trace []Record
	// Injected counts inject phases executed so far.
	Injected int
	// OnFault, when set, observes every executed phase.
	OnFault func(Record)
	// Tracer, when set, records every executed phase as a telemetry
	// event; a chaos run's exported timeline then shows injection →
	// degradation → recovery as spans next to the frame lifecycle.
	Tracer *telemetry.Tracer
}

// NewInjector creates an injector scheduling on e.
func NewInjector(e *sim.Engine) *Injector {
	return &Injector{
		engine:   e,
		links:    make(map[string]Link),
		ports:    make(map[string]Port),
		switches: make(map[string]Switch),
		hosts:    make(map[string]Host),
	}
}

// RegisterLink exposes l to KindLinkFlap events under name.
func (in *Injector) RegisterLink(name string, l Link) { in.links[name] = l }

// RegisterPort exposes p to KindLossBurst/KindCorruptBurst under name.
func (in *Injector) RegisterPort(name string, p Port) { in.ports[name] = p }

// RegisterSwitch exposes s to KindSwitchCrash under name.
func (in *Injector) RegisterSwitch(name string, s Switch) { in.switches[name] = s }

// RegisterHost exposes h to KindHostStall under name.
func (in *Injector) RegisterHost(name string, h Host) { in.hosts[name] = h }

// Apply validates the plan against the registered targets and schedules
// every event's phases, relative to the engine's current time. It
// returns an error (scheduling nothing) when any event is malformed or
// names an unknown target, so a typo in a scenario spec fails loudly
// instead of silently testing nothing.
func (in *Injector) Apply(plan Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, ev := range plan.Events {
		if err := in.check(ev); err != nil {
			return fmt.Errorf("faults: plan %q event %d: %w", plan.Name, i, err)
		}
	}
	base := in.engine.Now()
	onsets := make([]onset, len(plan.Events))
	for i, ev := range plan.Events {
		onsets[i] = onset{in: in, ev: ev}
		in.engine.Schedule(base.Add(ev.At), &onsets[i])
	}
	return nil
}

// onset is one plan event as the handler of its injection, recovery
// the same event as the handler of its recovery. Apply cuts a plan's
// onsets from one slab.
type onset struct {
	in *Injector
	ev Event
}

type recovery onset

func (o *onset) Fire() { o.in.inject(o) }

func (r *recovery) Fire() {
	in, ev := r.in, r.ev
	in.record(PhaseRecover, ev)
	switch ev.Kind {
	case KindLinkFlap:
		in.links[ev.Target].SetUp(true)
	case KindLossBurst:
		in.ports[ev.Target].SetLossRate(0)
	case KindCorruptBurst:
		in.ports[ev.Target].SetCorruptRate(0)
	case KindSwitchCrash:
		in.switches[ev.Target].Restart()
	case KindHostStall:
		in.hosts[ev.Target].Restart()
	}
}

// check verifies the event's target is registered for its kind.
func (in *Injector) check(ev Event) error {
	var ok bool
	switch ev.Kind {
	case KindLinkFlap:
		_, ok = in.links[ev.Target]
	case KindLossBurst, KindCorruptBurst:
		_, ok = in.ports[ev.Target]
	case KindSwitchCrash:
		_, ok = in.switches[ev.Target]
	case KindHostStall:
		_, ok = in.hosts[ev.Target]
	}
	if !ok {
		return fmt.Errorf("no registered %s target %q", ev.Kind, ev.Target)
	}
	return nil
}

// inject executes the fault's onset and schedules its recovery.
func (in *Injector) inject(o *onset) {
	ev := o.ev
	switch ev.Kind {
	case KindLinkFlap:
		in.links[ev.Target].SetUp(false)
	case KindLossBurst:
		in.ports[ev.Target].SetLossRate(ev.Magnitude)
	case KindCorruptBurst:
		in.ports[ev.Target].SetCorruptRate(ev.Magnitude)
	case KindSwitchCrash:
		in.switches[ev.Target].Fail()
	case KindHostStall:
		in.hosts[ev.Target].Fail()
	}
	if ev.Duration > 0 {
		in.engine.After(ev.Duration, (*recovery)(o))
	}
	in.Injected++
	in.record(PhaseInject, ev)
}

func (in *Injector) record(phase Phase, ev Event) {
	r := Record{At: in.engine.Now(), Phase: phase, Event: ev}
	in.Trace = append(in.Trace, r)
	if in.Tracer != nil {
		if phase == PhaseInject {
			in.Tracer.FaultInject(ev.Target, ev.String(), int64(ev.Duration))
		} else {
			in.Tracer.FaultRecover(ev.Target, ev.String())
		}
	}
	if in.OnFault != nil {
		in.OnFault(r)
	}
}

// TraceString renders the executed phases, one line each — the failover
// trace a Fig. 5-style run prints next to its packet series.
func (in *Injector) TraceString() string {
	if len(in.Trace) == 0 {
		return "(no faults injected)\n"
	}
	s := ""
	for _, r := range in.Trace {
		s += r.String() + "\n"
	}
	return s
}
