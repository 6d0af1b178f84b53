package simnet

import (
	"fmt"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// BenchmarkSwitchForwarding is one frame's host→switch→host journey at
// two FIB sizes: a cell switch's handful of stations and a spine's few
// hundred. The per-frame FIB work is one learning lookup on the source
// and one forwarding lookup on the destination.
func BenchmarkSwitchForwarding(b *testing.B) {
	for _, fib := range []int{8, 512} {
		b.Run(fmt.Sprintf("fib=%d", fib), func(b *testing.B) {
			e := sim.NewEngine(1)
			sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
			src := NewHost(e, "src", frame.NewMAC(1))
			dst := NewHost(e, "dst", frame.NewMAC(2))
			Connect(e, "a", src.Port(), sw.Port(0), 10e9, 0)
			Connect(e, "b", dst.Port(), sw.Port(1), 10e9, 0)
			sw.AddStatic(dst.MAC(), 1)
			for station := 3; station <= fib; station++ {
				sw.AddStatic(frame.NewMAC(uint32(station)), 1)
			}
			// Recycle frames through a pool so the benchmark measures only the
			// simulator path: with telemetry disabled the whole host→switch→host
			// journey must be 0 allocs/op (the CI zero-overhead guard).
			pool := &frame.Pool{}
			dst.OnReceive(pool.Put)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := pool.Get(64)
				f.Dst = dst.MAC()
				src.Send(f)
				e.Run()
			}
		})
	}
}

// BenchmarkSwitchForwardingINT is the same journey with the hosts as
// INT source and sink on the pool the frames come from: the delta
// against BenchmarkSwitchForwarding is the whole price of in-band
// telemetry (stack attach, one transit stamp, sink strip), asserted
// separately by TestINTPooledPathZeroAllocs.
func BenchmarkSwitchForwardingINT(b *testing.B) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: sim.Microsecond})
	src := NewHost(e, "src", frame.NewMAC(1))
	dst := NewHost(e, "dst", frame.NewMAC(2))
	Connect(e, "a", src.Port(), sw.Port(0), 10e9, 0)
	Connect(e, "b", dst.Port(), sw.Port(1), 10e9, 0)
	sw.AddStatic(dst.MAC(), 1)
	src.SetINTSource(1, 8, false)
	dst.SetINTSink(discardSink{})
	pool := &frame.Pool{}
	src.UsePool(pool)
	dst.UsePool(pool)
	dst.OnReceive(pool.Put)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pool.Get(64)
		f.Dst = dst.MAC()
		src.Send(f)
		e.Run()
	}
}

// discardSink reads the stack without retaining it, like a collector
// that folds observations into aggregates.
type discardSink struct{}

func (discardSink) SinkINT(node string, f *frame.Frame, nowNS int64) {
	for _, h := range f.INT.Hops {
		_ = h.HopLatencyNS()
	}
}

// BenchmarkPriorityQueue pushes frames round-robin over the eight
// classes and pops one for every four pushes, so the queue deepens until
// it is cleared past 2^11 frames. A frame sits in one queue at a time,
// so the pushes cycle through 2^12 distinct frames: each is out of the
// queue again before its turn comes round. The benchdiff guard pins 0
// allocs/op.
func BenchmarkPriorityQueue(b *testing.B) {
	q := NewPriorityQueue(1 << 16)
	frames := make([]frame.Frame, 1<<12)
	for i := range frames {
		frames[i] = frame.Frame{Tagged: true, Priority: frame.PCP(i % 8)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(&frames[i%len(frames)])
		if i%4 == 3 {
			q.Pop()
		}
		if q.Len() > 1<<11 {
			q.Clear()
		}
	}
}

func BenchmarkTASNextOpen(b *testing.B) {
	g := RTGuardSchedule(sim.Millisecond, 200*sim.Microsecond)
	for i := 0; i < b.N; i++ {
		g.NextOpen(sim.Time(i), frame.PrioBestEffort, 10*sim.Microsecond)
	}
}

// BenchmarkCrossShardForwarding is one frame's round trip between two
// switches on two shards: host → switch → cross-shard backbone → switch
// → host and the same way back, two group messages per op. The
// benchdiff guard pins it at 0 allocs/op.
func BenchmarkCrossShardForwarding(b *testing.B) {
	_, send := crossPath(b)
	for i := 0; i < 64; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
