package tsn

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

func path() PathSpec {
	return PathSpec{Hops: 3, LinkBps: 100e6, SwitchLatency: 2 * time.Microsecond, GuardBand: 2 * time.Microsecond}
}

func TestSynthesizeSimpleFlows(t *testing.T) {
	flows := []FlowSpec{
		{ID: 1, Period: time.Millisecond, FrameBytes: 64},
		{ID: 2, Period: time.Millisecond, FrameBytes: 64},
		{ID: 3, Period: 2 * time.Millisecond, FrameBytes: 128},
	}
	s, err := Synthesize(flows, path())
	if err != nil {
		t.Fatal(err)
	}
	if s.Hyperperiod != 2*time.Millisecond {
		t.Fatalf("hyperperiod = %v", s.Hyperperiod)
	}
	if len(s.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(s.Assignments))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeRejectsBadSpecs(t *testing.T) {
	if _, err := Synthesize(nil, path()); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Synthesize([]FlowSpec{{ID: 1, Period: 0, FrameBytes: 64}}, path()); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
	p := path()
	p.Hops = 0
	if _, err := Synthesize([]FlowSpec{{ID: 1, Period: time.Millisecond, FrameBytes: 64}}, p); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
}

func TestSynthesizeInfeasibleOverload(t *testing.T) {
	// 200 flows of 7.7µs windows in a 500µs period cannot fit.
	var flows []FlowSpec
	for i := 0; i < 200; i++ {
		flows = append(flows, FlowSpec{ID: uint32(i), Period: 500 * time.Microsecond, FrameBytes: 64})
	}
	if _, err := Synthesize(flows, path()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestSynthesizeWindowExceedsPeriod(t *testing.T) {
	flows := []FlowSpec{{ID: 1, Period: 50 * time.Microsecond, FrameBytes: 1500}}
	if _, err := Synthesize(flows, path()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidatePropertyOnRandomFlowSets(t *testing.T) {
	f := func(seed uint8, counts [4]uint8) bool {
		var flows []FlowSpec
		periods := []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
		id := uint32(1)
		for i, c := range counts {
			for k := 0; k < int(c%4); k++ {
				flows = append(flows, FlowSpec{ID: id, Period: periods[i], FrameBytes: 64 + int(seed)%200})
				id++
			}
		}
		if len(flows) == 0 {
			return true
		}
		s, err := Synthesize(flows, path())
		if err != nil {
			return errors.Is(err, ErrInfeasible) // rejection must be typed
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduledFlowsHaveZeroQueueingJitter is the synthesis-vs-
// simulator cross check: senders transmit at their assigned offsets
// over a shared 3-switch line; because the schedule is contention-free,
// every frame finds every queue empty and inter-arrival jitter at the
// sink is zero (up to nothing at all — the path is deterministic).
func TestScheduledFlowsHaveZeroQueueingJitter(t *testing.T) {
	flows := []FlowSpec{
		{ID: 1, Period: time.Millisecond, FrameBytes: 64},
		{ID: 2, Period: time.Millisecond, FrameBytes: 200},
		{ID: 3, Period: 2 * time.Millisecond, FrameBytes: 128},
	}
	p := path()
	s, err := Synthesize(flows, p)
	if err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine(1)
	// Line: senders -> sw0 -> sw1 -> sw2 -> sink; trunk = 3 hops.
	sws := make([]*simnet.Switch, 3)
	for i := range sws {
		// Deterministic switches: scheduled networks assume bounded,
		// constant forwarding latency.
		sws[i] = simnet.NewSwitch(e, "sw", 8, simnet.SwitchConfig{Latency: sim.Duration(p.SwitchLatency)})
	}
	simnet.Connect(e, "t0", sws[0].Port(6), sws[1].Port(7), p.LinkBps, 0)
	simnet.Connect(e, "t1", sws[1].Port(6), sws[2].Port(7), p.LinkBps, 0)
	sink := simnet.NewHost(e, "sink", frame.NewMAC(100))
	simnet.Connect(e, "sink", sws[2].Port(5), sink.Port(), p.LinkBps, 0)

	arrivals := map[uint32][]int64{}
	sink.OnReceive(func(f *frame.Frame) {
		arrivals[f.Meta.FlowID] = append(arrivals[f.Meta.FlowID], int64(e.Now()))
	})

	offset := map[uint32]time.Duration{}
	for _, a := range s.Assignments {
		offset[a.Flow.ID] = a.Offset
	}
	for i, fl := range flows {
		fl := fl
		src := simnet.NewHost(e, "src", frame.NewMAC(uint32(i+1)))
		simnet.Connect(e, "acc", src.Port(), sws[0].Port(i), 1e9, 0)
		e.Every(sim.Time(offset[fl.ID]), fl.Period, func() {
			src.Send(&frame.Frame{
				Dst: sink.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 10,
				Type:    frame.TypeProfinet,
				Payload: make([]byte, fl.FrameBytes-18),
				Meta:    frame.Meta{FlowID: fl.ID},
			})
		})
	}
	// Static routes to the sink.
	for _, sw := range sws {
		sw.AddStatic(sink.MAC(), map[*simnet.Switch]int{sws[0]: 6, sws[1]: 6, sws[2]: 5}[sw])
	}
	e.RunUntil(sim.Time(200 * time.Millisecond))

	for _, fl := range flows {
		got := arrivals[fl.ID]
		want := int(200*time.Millisecond/fl.Period) - 1
		if len(got) < want {
			t.Fatalf("flow %d delivered %d, want >= %d", fl.ID, len(got), want)
		}
		jit := metrics.InterArrivalJitter(got, fl.Period)
		if jit.Max() != 0 {
			t.Fatalf("flow %d max jitter = %vns, want 0 (contention-free)", fl.ID, jit.Max())
		}
	}
}

func TestUnscheduledFlowsDoQueue(t *testing.T) {
	// Control: the same flows all transmitting at offset 0 collide and
	// pick up queueing jitter — showing the schedule is what removes it.
	p := path()
	e := sim.NewEngine(1)
	sw := simnet.NewSwitch(e, "sw", 8, simnet.SwitchConfig{Latency: sim.Duration(p.SwitchLatency)})
	sink := simnet.NewHost(e, "sink", frame.NewMAC(100))
	simnet.Connect(e, "sink", sw.Port(7), sink.Port(), p.LinkBps, 0)
	sw.AddStatic(sink.MAC(), 7)
	arrivals := map[uint32][]int64{}
	sink.OnReceive(func(f *frame.Frame) {
		arrivals[f.Meta.FlowID] = append(arrivals[f.Meta.FlowID], int64(e.Now()))
	})
	for i := 0; i < 3; i++ {
		id := uint32(i + 1)
		src := simnet.NewHost(e, "src", frame.NewMAC(id))
		simnet.Connect(e, "acc", src.Port(), sw.Port(i), 1e9, 0)
		e.Every(0, time.Millisecond, func() {
			src.Send(&frame.Frame{
				Dst: sink.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 10,
				Type: frame.TypeProfinet, Payload: make([]byte, 100),
				Meta: frame.Meta{FlowID: id},
			})
		})
	}
	e.RunUntil(sim.Time(100 * time.Millisecond))
	// The last flow in FIFO order waits behind two 118-byte frames.
	jit := metrics.InterArrivalJitter(arrivals[3], time.Millisecond)
	_ = jit
	// At least one flow must see nonzero queueing-induced arrival skew
	// relative to another (they cannot all arrive at their send phase).
	var skews []int64
	for id := uint32(1); id <= 3; id++ {
		if len(arrivals[id]) > 0 {
			skews = append(skews, arrivals[id][0])
		}
	}
	if len(skews) < 3 || (skews[0] == skews[1] && skews[1] == skews[2]) {
		t.Fatalf("colliding flows arrived identically: %v", skews)
	}
}
