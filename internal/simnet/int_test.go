package simnet

import (
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// captureSink records every INT stack handed to it, the way the
// collector does, without coupling the test to internal/int.
type captureSink struct {
	stacks []frame.INTStack
	atNS   []int64
}

func (c *captureSink) SinkINT(node string, f *frame.Frame, nowNS int64) {
	c.stacks = append(c.stacks, *f.INT.Clone())
	c.atNS = append(c.atNS, nowNS)
}

// intPath is fwdPath with the hosts playing INT source and sink roles.
func intPath(seed uint64, maxHops int, strict bool) (*sim.Engine, *Switch, *captureSink, func() bool) {
	e := sim.NewEngine(seed)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw.Port(1), 10e9, 0)
	sw.AddStatic(dst.MAC(), 1)
	src.SetINTSource(7, maxHops, strict)
	sink := &captureSink{}
	dst.SetINTSink(sink)
	pool := &frame.Pool{}
	dst.OnReceive(func(f *frame.Frame) {
		if f.INT != nil {
			panic("INT stack reached the handler unstripped")
		}
		pool.Put(f)
	})
	return e, sw, sink, func() bool {
		f := pool.Get(64)
		f.Dst = dst.MAC()
		ok := src.Send(f)
		e.Run()
		return ok
	}
}

func TestINTEndToEndStamping(t *testing.T) {
	_, _, sink, send := intPath(1, 8, false)
	for i := 0; i < 3; i++ {
		send()
	}
	if len(sink.stacks) != 3 {
		t.Fatalf("sink saw %d stacks, want 3", len(sink.stacks))
	}
	for i, st := range sink.stacks {
		if st.Source != "src" || st.FlowID != 7 {
			t.Fatalf("stack %d identity = %s/%d", i, st.Source, st.FlowID)
		}
		if st.Seq != uint32(i+1) {
			t.Fatalf("stack %d seq = %d, want 1-based %d", i, st.Seq, i+1)
		}
		if len(st.Hops) != 1 || st.Hops[0].Node != "sw" {
			t.Fatalf("stack %d hops = %+v, want single sw transit", i, st.Hops)
		}
		// Jitter is zero, so the hop latency is exactly the switch's
		// configured pipeline latency.
		if got := st.Hops[0].HopLatencyNS(); got != int64(sim.Microsecond) {
			t.Fatalf("stack %d hop latency = %dns, want %dns", i, got, int64(sim.Microsecond))
		}
		if st.Hops[0].DropRisk {
			t.Fatalf("stack %d flags drop risk on an idle queue", i)
		}
		// End-to-end: sink time after source time, by at least the hop.
		if e2e := sink.atNS[i] - st.SourceNS; e2e < st.Hops[0].HopLatencyNS() {
			t.Fatalf("stack %d e2e %dns < hop latency", i, e2e)
		}
	}
}

func TestINTLenientOverflowForwardsUnstamped(t *testing.T) {
	e := sim.NewEngine(1)
	sw1 := NewSwitch(e, "sw1", 2, SwitchConfig{Latency: sim.Microsecond})
	sw2 := NewSwitch(e, "sw2", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw1.Port(0), 10e9, 0)
	Connect(e, "m", sw1.Port(1), sw2.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw2.Port(1), 10e9, 0)
	sw1.AddStatic(dst.MAC(), 1)
	sw2.AddStatic(dst.MAC(), 1)
	src.SetINTSource(1, 1, false) // room for one hop, lenient
	sink := &captureSink{}
	dst.SetINTSink(sink)
	dst.OnReceive(func(*frame.Frame) {})

	f := &frame.Frame{Dst: dst.MAC(), Payload: make([]byte, 46)}
	src.Send(f)
	e.Run()

	if len(sink.stacks) != 1 {
		t.Fatalf("sink saw %d stacks, want 1", len(sink.stacks))
	}
	st := sink.stacks[0]
	if len(st.Hops) != 1 || st.Hops[0].Node != "sw1" {
		t.Fatalf("hops = %+v, want only sw1 (sw2 out of room)", st.Hops)
	}
	if sw1.INTDrops != 0 || sw2.INTDrops != 0 {
		t.Fatalf("lenient overflow counted drops: sw1=%d sw2=%d", sw1.INTDrops, sw2.INTDrops)
	}
}

func TestINTStrictOverflowDrops(t *testing.T) {
	e := sim.NewEngine(1)
	sw1 := NewSwitch(e, "sw1", 2, SwitchConfig{Latency: sim.Microsecond})
	sw2 := NewSwitch(e, "sw2", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw1.Port(0), 10e9, 0)
	Connect(e, "m", sw1.Port(1), sw2.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw2.Port(1), 10e9, 0)
	sw1.AddStatic(dst.MAC(), 1)
	sw2.AddStatic(dst.MAC(), 1)
	src.SetINTSource(1, 1, true) // room for one hop, strict
	sink := &captureSink{}
	dst.SetINTSink(sink)
	pool := &frame.Pool{}
	dst.OnReceive(pool.Put)
	ports := []*Port{src.Port(), dst.Port(), sw1.Port(0), sw1.Port(1), sw2.Port(0), sw2.Port(1)}
	for _, p := range ports {
		p.OnDrop = pool.Put
	}

	const n = 5
	for i := 0; i < n; i++ {
		f := pool.Get(64)
		f.Dst = dst.MAC()
		src.Send(f)
		e.Run()
	}

	if len(sink.stacks) != 0 {
		t.Fatalf("sink saw %d stacks; strict frames must die at sw2", len(sink.stacks))
	}
	if sw1.INTDrops != 0 {
		t.Fatalf("sw1 counted %d INT drops, want 0 (stack fits there)", sw1.INTDrops)
	}
	if sw2.INTDrops != n {
		t.Fatalf("sw2 counted %d INT drops, want %d", sw2.INTDrops, n)
	}
	// INT drops are inside-switch deaths, outside the egress identity —
	// the ledger must still balance with them counted separately.
	a := Account(ports...)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.INTDrops != n {
		t.Fatalf("accounting INTDrops = %d, want %d", a.INTDrops, n)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("frame pool leak: %d outstanding after INT drops", pool.Outstanding())
	}
}

func TestINTQueueDepthAndDropRisk(t *testing.T) {
	e := sim.NewEngine(7)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	sw.SetQueueDepth(4)
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw.Port(0), 1e9, 0)
	// Slow egress so the switch queue backs up while we keep sending.
	Connect(e, "b", dst.Port(), sw.Port(1), 1e6, 0)
	sw.AddStatic(dst.MAC(), 1)
	src.SetINTSource(1, 8, false)
	sink := &captureSink{}
	dst.SetINTSink(sink)
	dst.OnReceive(func(*frame.Frame) {})
	for _, p := range []*Port{src.Port(), dst.Port(), sw.Port(0), sw.Port(1)} {
		p.OnDrop = func(*frame.Frame) {}
	}

	for i := 0; i < 12; i++ {
		f := &frame.Frame{Dst: dst.MAC(), Payload: make([]byte, 200)}
		src.Send(f)
	}
	e.Run()

	var sawDepth, sawRisk bool
	for _, st := range sink.stacks {
		if st.Hops[0].QueueDepth > 0 {
			sawDepth = true
		}
		if st.Hops[0].DropRisk {
			sawRisk = true
		}
	}
	if !sawDepth || !sawRisk {
		t.Fatalf("congested egress never surfaced in INT records: depth=%v risk=%v", sawDepth, sawRisk)
	}
}

// TestINTPooledPathZeroAllocs is the enabled half of the telemetry cost
// contract (TestForwardingHotPathZeroAllocs covers INT disabled): with
// source and sink on one pool, as every harness wires them, and a sink
// that folds without retaining, the whole INT-enabled journey allocates
// nothing in steady state — telemetry stacks recycle with their frames.
func TestINTPooledPathZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw.Port(1), 10e9, 0)
	sw.AddStatic(dst.MAC(), 1)
	src.SetINTSource(7, 8, false)
	dst.SetINTSink(discardSink{})
	pool := &frame.Pool{}
	src.UsePool(pool)
	dst.UsePool(pool)
	dst.OnReceive(pool.Put)
	send := func() {
		f := pool.Get(64)
		f.Dst = dst.MAC()
		src.Send(f)
		e.Run()
	}
	for i := 0; i < 64; i++ {
		send() // warm the frame and stack pools
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("pooled INT path allocates %.1f allocs/op; want 0", allocs)
	}
	if pool.StackReused == 0 || pool.StackNews > pool.StackReused || pool.StacksOutstanding() != 0 {
		t.Fatalf("stacks not recycling: news=%d reused=%d puts=%d",
			pool.StackNews, pool.StackReused, pool.StackPuts)
	}
}
