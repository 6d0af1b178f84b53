package simnet

import (
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
)

// fwdPath builds the minimal host→switch→host topology used by the
// zero-overhead guards and returns a closure that pushes one pooled
// frame end to end.
func fwdPath(seed uint64, tr *telemetry.Tracer) (*sim.Engine, func()) {
	e := sim.NewEngine(seed)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw.Port(1), 10e9, 0)
	sw.AddStatic(dst.MAC(), 1)
	pool := &frame.Pool{}
	dst.OnReceive(pool.Put)
	if tr != nil {
		tr.Bind(e)
		sw.SetTracer(tr)
		src.SetTracer(tr)
		dst.SetTracer(tr)
	}
	return e, func() {
		f := pool.Get(64)
		f.Dst = dst.MAC()
		src.Send(f)
		e.Run()
	}
}

// TestForwardingHotPathZeroAllocs is the zero-overhead contract of the
// telemetry layer: with no tracer attached, a full host→switch→host
// frame journey — enqueue, serialization, pipeline delay, propagation,
// delivery, pool recycle — allocates nothing in steady state. CI runs
// this; see also BenchmarkSwitchForwarding.
func TestForwardingHotPathZeroAllocs(t *testing.T) {
	_, send := fwdPath(1, nil)
	// Warm every free list touched by the path: the frame pool, the
	// ports' flight contexts, the switch's forward contexts, the event
	// arena and the heap's backing array.
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("forwarding hot path allocates %.1f allocs/op with telemetry disabled; want 0", allocs)
	}
}

// TestQueuePathZeroAllocs pins the enqueue/dequeue path on its own: a
// saturated port draining through a warmed PriorityQueue.
func TestQueuePathZeroAllocs(t *testing.T) {
	q := NewPriorityQueue(64)
	frames := make([]*frame.Frame, 32)
	for i := range frames {
		frames[i] = &frame.Frame{Tagged: true, Priority: frame.PCP(i % 8)}
	}
	cycle := func() {
		for _, f := range frames {
			q.Push(f)
		}
		for q.Pop() != nil {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("queue path allocates %.1f allocs/op; want 0", allocs)
	}
}

// TestDisabledTelemetryIdenticalToSeed checks the other half of the
// contract: attaching no tracer leaves counters exactly as a run that
// never imported telemetry — i.e. the instrumented build is
// observationally identical when disabled.
func TestDisabledTelemetryIdenticalToSeed(t *testing.T) {
	run := func(tr *telemetry.Tracer) (uint64, sim.Time) {
		e, send := fwdPath(42, tr)
		for i := 0; i < 100; i++ {
			send()
		}
		return e.Stats().EventsFired, e.Now()
	}
	fired0, now0 := run(nil)
	fired1, now1 := run(telemetry.NewTracer(nil))
	if fired0 != fired1 || now0 != now1 {
		t.Fatalf("tracing changed the simulation: disabled (%d events, t=%v) vs enabled (%d events, t=%v)",
			fired0, now0, fired1, now1)
	}
}

// TestTracerLifecycleEvents checks one frame's journey produces the
// expected lifecycle sequence with a tracer attached.
func TestTracerLifecycleEvents(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	_, send := fwdPath(1, tr)
	send()
	var kinds []telemetry.Kind
	for _, ev := range tr.Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := []telemetry.Kind{
		telemetry.KindHostTx,  // src hands the frame down
		telemetry.KindEnqueue, // src port queue
		telemetry.KindTxStart, // src wire
		telemetry.KindDeliver, // arrives at sw port 0
		telemetry.KindForward, // FIB hit toward port 1
		telemetry.KindEnqueue, // sw port 1 queue
		telemetry.KindTxStart, // sw wire
		telemetry.KindDeliver, // arrives at dst
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// All events carry the same frame id, assigned on first touch.
	for _, ev := range tr.Events() {
		if ev.Frame != 1 {
			t.Fatalf("event %v has frame id %d, want 1", ev.Kind, ev.Frame)
		}
	}
	// The final delivery reports a positive end-to-end latency.
	last := tr.Events()[len(tr.Events())-1]
	if last.Node != "dst" || last.Aux <= 0 {
		t.Fatalf("final deliver = %+v, want node dst with positive latency", last)
	}
}

// TestAccountingConservation drives traffic into an overflowing port and
// checks the ledger balances mid-run and after drain, and that the
// legacy Drops counter decomposes exactly into its new causes.
func TestAccountingConservation(t *testing.T) {
	e := sim.NewEngine(7)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	sw.SetQueueDepth(4)
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	// Slow egress link so the switch queue overflows.
	Connect(e, "a", src.Port(), sw.Port(0), 1e9, 0)
	Connect(e, "b", dst.Port(), sw.Port(1), 1e6, 0)
	sw.AddStatic(dst.MAC(), 1)
	sw.AddStatic(src.MAC(), 0)
	pool := &frame.Pool{}
	dst.OnReceive(pool.Put)
	for _, p := range []*Port{src.Port(), dst.Port(), sw.Port(0), sw.Port(1)} {
		p.OnDrop = pool.Put
	}
	ports := []*Port{src.Port(), dst.Port(), sw.Port(0), sw.Port(1)}

	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 10; i++ {
			f := pool.Get(200)
			f.Dst = dst.MAC()
			if !src.Send(f) {
				pool.Put(f)
			}
		}
		// Mid-run cut: frames are queued and in flight, the identity
		// must still balance.
		if err := Account(ports...).Check(); err != nil {
			t.Fatalf("mid-run burst %d: %v", burst, err)
		}
		e.RunFor(100 * sim.Microsecond)
	}
	e.Run()
	a := Account(ports...)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.Queued != 0 || a.InFlight != 0 {
		t.Fatalf("drained network still has queued=%d in-flight=%d", a.Queued, a.InFlight)
	}
	if a.OverflowDrops == 0 {
		t.Fatal("scenario was meant to overflow the switch egress queue")
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("frame pool leak: %d outstanding", pool.Outstanding())
	}
	for _, p := range ports {
		if got := p.OverflowDrops() + p.DownDrops() + p.ShaperDrops() + p.FlushedDrops(); got != p.Drops() {
			t.Fatalf("port %s/%d: Drops=%d but causes sum to %d", p.Owner.Name(), p.Index, p.Drops(), got)
		}
	}
}
