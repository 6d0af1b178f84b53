package sim

import "testing"

// BenchmarkEngineShardedLocalSteady measures the windowed coordinator
// overhead on purely local work: 4 shards each ticking every instant,
// advanced one 1024-tick window per op on the serial path. The benchdiff
// alloc guard pins this at zero allocations in steady state — windows,
// barriers, and outbox flushes must all run arena- and GC-free.
func BenchmarkEngineShardedLocalSteady(b *testing.B) {
	g, err := NewShardGroup(1, 4, 1024)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for s := 0; s < g.Shards(); s++ {
		g.Shard(s).Every(0, 1, func() { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(g.Now().Add(1024), 1)
	}
}

// BenchmarkEngineShardedCross measures the cross-shard message path:
// each shard reschedules itself every 64 ticks and sends a prebuilt
// handler to its neighbour one lookahead out, so every window carries
// outbox traffic. Steady state is zero-alloc: xmsg slots, delivery
// slots and arena slots are all reused across barriers.
func BenchmarkEngineShardedCross(b *testing.B) {
	const L = Duration(1024)
	g, err := NewShardGroup(1, 4, L)
	if err != nil {
		b.Fatal(err)
	}
	noop := func(any, int) {}
	for s := 0; s < g.Shards(); s++ {
		s := s
		e := g.Shard(s)
		dst := (s + 1) % g.Shards()
		var step func()
		step = func() {
			g.Send(s, dst, e.Now().Add(L), noop, nil, 0)
			e.Schedule(e.Now().Add(64), step)
		}
		e.Schedule(0, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(g.Now().Add(1024), 1)
	}
}
