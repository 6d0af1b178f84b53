package telemetry

import (
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d (%q) round-tripped to %d, ok=%v", k, name, back, ok)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind = %q", Kind(200).String())
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("unknown kind name accepted")
	}
}

func TestCauseNamesRoundTrip(t *testing.T) {
	for c := Cause(0); c < numCauses; c++ {
		back, ok := CauseFromString(c.String())
		if !ok || back != c {
			t.Fatalf("cause %d (%q) round-tripped to %d, ok=%v", c, c.String(), back, ok)
		}
	}
	if Cause(200).String() != "unknown" {
		t.Fatalf("out-of-range cause = %q", Cause(200).String())
	}
	if _, ok := CauseFromString("no-such-cause"); ok {
		t.Fatal("unknown cause name accepted")
	}
}

// A nil *Tracer must accept every record method without panicking and
// report itself empty — that is the whole zero-overhead contract.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	f := &frame.Frame{}
	tr.Bind(nil)
	tr.HostTx("n", f)
	tr.Enqueue("n", 0, f, 1)
	tr.TxStart("n", 0, f, 100)
	tr.Forward("n", 0, 1, f)
	tr.Flood("n", 0, f, 2)
	tr.PacketIn("n", 0, f)
	tr.Corrupt("n", 0, f)
	tr.Drop("n", 0, f, CauseOverflow)
	tr.Deliver("n", 0, f, 42)
	tr.FaultInject("t", "spec", 1)
	tr.FaultRecover("t", "spec")
	if tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	if id := tr.FrameID(f); id != 0 || f.Meta.TraceID != 0 {
		t.Fatalf("nil tracer assigned frame id %d", id)
	}
}

func TestFrameIDsDenseAndInherited(t *testing.T) {
	tr := NewTracer(nil)
	f1, f2 := &frame.Frame{}, &frame.Frame{}
	if tr.FrameID(f1) != 1 || tr.FrameID(f2) != 2 {
		t.Fatalf("ids not dense from 1: %d, %d", f1.Meta.TraceID, f2.Meta.TraceID)
	}
	if tr.FrameID(f1) != 1 {
		t.Fatal("id not stable on re-ask")
	}
	clone := f1.Clone()
	if tr.FrameID(clone) != 1 {
		t.Fatalf("clone id = %d, want original's 1", clone.Meta.TraceID)
	}
}

func TestTracerUsesBoundEngineClock(t *testing.T) {
	tr := NewTracer(nil)
	f := &frame.Frame{}
	tr.HostTx("n", f) // unbound: records t=0
	e := sim.NewEngine(1)
	tr.Bind(e)
	e.After(5*sim.Microsecond, sim.Func(func() { tr.Deliver("n", 0, f, 7) }))
	e.Run()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].T != 0 {
		t.Fatalf("unbound event t = %d", evs[0].T)
	}
	if evs[1].T != 5000 || evs[1].Kind != KindDeliver || evs[1].Aux != 7 {
		t.Fatalf("bound event = %+v", evs[1])
	}
}

func TestFrameEventFields(t *testing.T) {
	tr := NewTracer(nil)
	f := &frame.Frame{Priority: 5}
	tr.Drop("sw0", 3, f, CauseHairpin)
	ev := tr.Events()[0]
	if ev.Node != "sw0" || ev.Port != 3 || ev.Cause != CauseHairpin || ev.Frame != 1 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Prio != uint8(f.EffectivePriority()) {
		t.Fatalf("prio = %d", ev.Prio)
	}
	tr.FaultInject("vplc1", "hoststall:vplc1@1s", 400)
	fe := tr.Events()[1]
	if fe.Port != -1 || fe.Aux != 400 || fe.Node != "vplc1" || fe.Detail != "hoststall:vplc1@1s" {
		t.Fatalf("fault event = %+v", fe)
	}
}
