package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"steelnet/internal/sim"
)

func TestParsePlan(t *testing.T) {
	spec := "hoststall:vplc1@1.3s,linkflap:ring2@500ms+1s,loss:dev-dp@0s+3s*0.05,corrupt:dev@2ms*0.25"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := []Event{
		{At: 0, Kind: KindLossBurst, Target: "dev-dp", Duration: 3 * time.Second, Magnitude: 0.05},
		{At: 2 * time.Millisecond, Kind: KindCorruptBurst, Target: "dev", Magnitude: 0.25},
		{At: 500 * time.Millisecond, Kind: KindLinkFlap, Target: "ring2", Duration: time.Second},
		{At: 1300 * time.Millisecond, Kind: KindHostStall, Target: "vplc1"},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events = %+v\nwant %+v", p.Events, want)
	}
}

// TestSpecRoundTrip: rendering a parsed plan and reparsing it yields the
// same events — the property that lets a trace header reproduce its run.
func TestSpecRoundTrip(t *testing.T) {
	p, err := ParsePlan("switchcrash:sw2@1ms+5ms,corrupt:p0@0s+1s*0.5,hoststall:h@10ms+20ms*-80")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p.Events, p2.Events) {
		t.Fatalf("round trip changed events:\n%+v\n%+v", p.Events, p2.Events)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"hoststall:vplc1",        // missing @time
		"hoststall@1s",           // missing kind:target
		"frobnicate:x@1s",        // unknown kind
		"hoststall:@1s",          // empty target
		"hoststall:vplc1@nope",   // bad time
		"hoststall:vplc1@1s+x",   // bad duration
		"loss:p@1s*zz",           // bad magnitude
		"hoststall:vplc1@-1s",    // negative time
		"loss:dp.2@0s+1s*NaN",    // non-finite probability
		"hoststall:vplc1@1s*Inf", // non-finite magnitude on any kind
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q): want error, got nil", spec)
		}
	}
	p, err := ParsePlan("  ")
	if err != nil || !p.Empty() {
		t.Fatalf("blank spec: plan=%+v err=%v, want empty plan", p, err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: numKinds, Target: "x"}}},
		{Events: []Event{{Kind: KindLinkFlap}}},
		{Events: []Event{{Kind: KindLinkFlap, Target: "x", At: -1}}},
		{Events: []Event{{Kind: KindLossBurst, Target: "x", Magnitude: 1.5}}},
		{Events: []Event{{Kind: KindLossBurst, Target: "x", Magnitude: math.NaN()}}},
		{Events: []Event{{Kind: KindHostStall, Target: "x", Magnitude: math.Inf(1)}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: want validation error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Horizon: 2 * time.Second, Events: 40,
		Links: []string{"l0", "l1"}, Ports: []string{"p0"},
		Switches: []string{"sw"}, Hosts: []string{"h"},
	}
	a, b := Generate(7, cfg), Generate(7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Events) != 40 {
		t.Fatalf("got %d events, want 40", len(a.Events))
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("plan not sorted at %d", i)
		}
	}
	if c := Generate(8, cfg); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestGenerateRespectsPools: kinds whose pools are empty never appear.
func TestGenerateRespectsPools(t *testing.T) {
	p := Generate(1, GenConfig{Events: 50, Links: []string{"only"}})
	for _, ev := range p.Events {
		if ev.Kind != KindLinkFlap || ev.Target != "only" {
			t.Fatalf("unexpected event %v with only a link pool", ev)
		}
	}
	if !Generate(1, GenConfig{Events: 10}).Empty() {
		t.Fatal("no pools should yield an empty plan")
	}
}

// Fakes recording fault calls.

type fakeLink struct{ ups []bool }

func (f *fakeLink) SetUp(up bool) { f.ups = append(f.ups, up) }

type fakePort struct{ loss, corrupt []float64 }

func (f *fakePort) SetLossRate(p float64)    { f.loss = append(f.loss, p) }
func (f *fakePort) SetCorruptRate(p float64) { f.corrupt = append(f.corrupt, p) }

type fakeBox struct{ fails, restarts int }

func (f *fakeBox) Fail()    { f.fails++ }
func (f *fakeBox) Restart() { f.restarts++ }

func TestInjectorLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	link := &fakeLink{}
	port := &fakePort{}
	sw, host := &fakeBox{}, &fakeBox{}
	in.RegisterLink("l", link)
	in.RegisterPort("p", port)
	in.RegisterSwitch("sw", sw)
	in.RegisterHost("h", host)

	plan := Plan{Name: "all-kinds", Events: []Event{
		{At: 1 * time.Millisecond, Kind: KindLinkFlap, Target: "l", Duration: time.Millisecond},
		{At: 2 * time.Millisecond, Kind: KindLossBurst, Target: "p", Duration: time.Millisecond, Magnitude: 0.5},
		{At: 3 * time.Millisecond, Kind: KindCorruptBurst, Target: "p", Duration: time.Millisecond, Magnitude: 0.25},
		{At: 4 * time.Millisecond, Kind: KindSwitchCrash, Target: "sw", Duration: time.Millisecond},
		{At: 5 * time.Millisecond, Kind: KindHostStall, Target: "h", Duration: time.Millisecond},
	}}
	if err := in.Apply(plan); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	e.Run()

	if got, want := link.ups, []bool{false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("link ups = %v, want %v", got, want)
	}
	if got, want := port.loss, []float64{0.5, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("port loss = %v, want %v", got, want)
	}
	if got, want := port.corrupt, []float64{0.25, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("port corrupt = %v, want %v", got, want)
	}
	if sw.fails != 1 || sw.restarts != 1 {
		t.Errorf("switch fails=%d restarts=%d, want 1/1", sw.fails, sw.restarts)
	}
	if host.fails != 1 || host.restarts != 1 {
		t.Errorf("host fails=%d restarts=%d, want 1/1", host.fails, host.restarts)
	}
	if in.Injected != len(plan.Events) {
		t.Errorf("Injected = %d, want %d", in.Injected, len(plan.Events))
	}
	// Trace: 5 injects + 5 recoveries, in time order.
	if len(in.Trace) != 10 {
		t.Fatalf("trace has %d records, want 10:\n%s", len(in.Trace), in.TraceString())
	}
	for i := 1; i < len(in.Trace); i++ {
		if in.Trace[i].At < in.Trace[i-1].At {
			t.Fatalf("trace out of order at %d:\n%s", i, in.TraceString())
		}
	}
	if !strings.Contains(in.TraceString(), "inject") || !strings.Contains(in.TraceString(), "recover") {
		t.Fatalf("trace missing phases:\n%s", in.TraceString())
	}
}

// TestApplyFailsLoudly: a plan naming an unknown target schedules
// nothing — no partial injection.
func TestApplyFailsLoudly(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	in.RegisterHost("h", &fakeBox{})
	err := in.Apply(Plan{Events: []Event{
		{At: time.Millisecond, Kind: KindHostStall, Target: "h"},
		{At: 2 * time.Millisecond, Kind: KindLinkFlap, Target: "ghost"},
	}})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want unknown-target error naming ghost", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after failed Apply, want 0", e.Pending())
	}
}
