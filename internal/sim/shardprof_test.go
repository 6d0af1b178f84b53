package sim

import (
	"fmt"
	"testing"
)

func TestShardProfileCountsAndWindowLog(t *testing.T) {
	g, _ := buildPingPong(3)
	g.EnableProfiling()
	g.Run(20000, 2)

	p := g.Profile()
	if p.Shards != 2 {
		t.Fatalf("profile shards = %d, want 2", p.Shards)
	}
	if p.Windows == 0 || p.Windows != g.Stats().Windows {
		t.Fatalf("profile windows = %d, group stats %d", p.Windows, g.Stats().Windows)
	}
	var laneEvents, laneMsgs uint64
	var fired uint64
	for s := 0; s < g.Shards(); s++ {
		laneEvents += p.PerShard[s].Events
		laneMsgs += p.PerShard[s].OutboxMsgs
		fired += g.Shard(s).fired
		if p.PerShard[s].Shard != s {
			t.Fatalf("lane %d labeled shard %d", s, p.PerShard[s].Shard)
		}
	}
	if laneEvents != fired {
		t.Fatalf("lane events %d != engine fired %d", laneEvents, fired)
	}
	if laneMsgs != g.Stats().Messages {
		t.Fatalf("lane outbox msgs %d != group messages %d", laneMsgs, g.Stats().Messages)
	}
	if p.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1 with events fired", p.Imbalance)
	}

	log := g.WindowLog()
	if len(log) == 0 {
		t.Fatal("empty window log after a profiled run")
	}
	var logEvents uint64
	var logMsgs uint64
	prevEnd := int64(-1)
	for i, w := range log {
		if w.StartNS >= w.EndNS {
			t.Fatalf("window %d span [%d,%d) is empty or inverted", i, w.StartNS, w.EndNS)
		}
		if w.StartNS < prevEnd {
			t.Fatalf("window %d starts at %d before previous end %d", i, w.StartNS, prevEnd)
		}
		prevEnd = w.EndNS
		if len(w.Events) != g.Shards() {
			t.Fatalf("window %d has %d event lanes, want %d", i, len(w.Events), g.Shards())
		}
		for _, e := range w.Events {
			logEvents += uint64(e)
		}
		logMsgs += uint64(w.Msgs)
	}
	if logEvents != laneEvents {
		t.Fatalf("window log events %d != lane events %d", logEvents, laneEvents)
	}
	if logMsgs != g.Stats().Messages {
		t.Fatalf("window log msgs %d != group messages %d", logMsgs, g.Stats().Messages)
	}
}

// TestShardProfileDeterministic pins the sim-time half of the profile:
// the window log and the event/message lane counters are identical
// across worker counts and across Run cut points, and the chunk-granular
// quantities (ActiveChunks, OccupiedNS) are identical across worker
// counts for a fixed cut pattern. Wall-clock fields (BusyNS,
// BarrierWaitNS) are explicitly excluded — they are diagnostics.
func TestShardProfileDeterministic(t *testing.T) {
	type run struct {
		name    string
		workers int
		step    Duration
	}
	profile := func(r run) ([]WindowRecord, []ShardLaneStats) {
		g, _ := buildPingPong(3)
		g.EnableProfiling()
		for at := Time(0); at < 20000; {
			at = at.Add(r.step)
			if at > 20000 {
				at = 20000
			}
			g.Run(at, r.workers)
		}
		lanes := g.Profile().PerShard
		for i := range lanes {
			lanes[i].BusyNS, lanes[i].BarrierWaitNS = 0, 0
		}
		return g.WindowLog(), lanes
	}
	refLog, refLanes := profile(run{"ref", 1, 20000})
	if log, lanes := profile(run{"w4", 4, 20000}); fmt.Sprint(log) != fmt.Sprint(refLog) ||
		fmt.Sprint(lanes) != fmt.Sprint(refLanes) {
		t.Fatalf("worker count changed the sim-time profile\n got %+v %v\nwant %+v %v",
			lanes, log, refLanes, refLog)
	}
	// Cut points slice windows into more chunks (ActiveChunks/OccupiedNS
	// legitimately change, per their docs) but the window log and the
	// event/message counters must not move.
	for _, r := range []run{{"w2cut", 2, 137}, {"w1cut", 1, 999}} {
		log, lanes := profile(r)
		if fmt.Sprint(log) != fmt.Sprint(refLog) {
			t.Fatalf("%s: window log diverged\n got %v\nwant %v", r.name, log, refLog)
		}
		for s := range lanes {
			if lanes[s].Events != refLanes[s].Events || lanes[s].OutboxMsgs != refLanes[s].OutboxMsgs {
				t.Fatalf("%s: shard %d counters diverged: %+v vs %+v", r.name, s, lanes[s], refLanes[s])
			}
		}
	}
}

// TestShardProfilingObservational pins the zero-interference contract:
// enabling the profiler changes no simulation output — event logs and
// checkpoint digests match an unprofiled run exactly.
func TestShardProfilingObservational(t *testing.T) {
	ref, refLogs := buildPingPong(3)
	ref.Run(20000, 2)
	refDigest := groupDigest(ref)

	g, logs := buildPingPong(3)
	g.EnableProfiling()
	g.EnableProfiling() // idempotent
	g.Run(20000, 2)
	if got := groupDigest(g); got != refDigest {
		t.Fatalf("profiled digest %#x != unprofiled %#x", got, refDigest)
	}
	for s := 0; s < 2; s++ {
		if fmt.Sprint(logs[s]) != fmt.Sprint(refLogs[s]) {
			t.Fatalf("shard %d log diverged under profiling", s)
		}
	}
	if !g.ProfilingEnabled() || ref.ProfilingEnabled() {
		t.Fatal("ProfilingEnabled flags wrong")
	}
}

func TestShardProfileDisabledGroupCounters(t *testing.T) {
	g, _ := buildPingPong(3)
	g.Run(20000, 1)
	p := g.Profile()
	if p.Windows == 0 || p.Messages == 0 {
		t.Fatalf("group counters empty without profiling: %+v", p)
	}
	if p.PerShard != nil || p.Imbalance != 0 || p.MergeHighWater != 0 {
		t.Fatalf("per-shard detail present without profiling: %+v", p)
	}
	if g.WindowLog() != nil {
		t.Fatal("window log present without profiling")
	}
	if ln := g.LaneStats(1); ln.Shard != 1 || ln.Events != 0 {
		t.Fatalf("disabled LaneStats = %+v", ln)
	}
}

// TestShardProfilingDisabledZeroAllocs guards the zero-overhead
// contract: with profiling off, the windowed coordinator's steady state
// — local work, cross-shard sends, barriers and flushes — allocates
// nothing per window.
func TestShardProfilingDisabledZeroAllocs(t *testing.T) {
	const L = Duration(1024)
	g, err := NewShardGroup(1, 4, L)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	noop := func(any, int) {}
	for s := 0; s < g.Shards(); s++ {
		s := s
		e := g.Shard(s)
		dst := (s + 1) % g.Shards()
		e.Every(0, 1, func() { n++ })
		var step func()
		step = func() {
			g.Send(s, dst, e.Now().Add(L), noop, nil, 0)
			e.Schedule(e.Now().Add(64), step)
		}
		e.Schedule(0, step)
	}
	// Warm the arenas, outbox slots and merge scratch.
	g.Run(g.Now().Add(16*1024), 1)
	if a := testing.AllocsPerRun(50, func() {
		g.Run(g.Now().Add(1024), 1)
	}); a != 0 {
		t.Fatalf("disabled-profiler steady state allocates %v allocs/op, want 0", a)
	}
}

func TestShardProfileWindowLogCap(t *testing.T) {
	const L = Duration(8)
	g, err := NewShardGroup(1, 2, L)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.Shards(); s++ {
		g.Shard(s).Every(0, L, func() {})
	}
	g.EnableProfiling()
	// Windows cover their inclusive end instant, so each spans two tick
	// periods here; double the horizon to push past the log cap.
	g.Run(Time(0).Add(2*L*(maxWindowLog+8)), 1)
	p := g.Profile()
	if p.WindowsDropped == 0 {
		t.Fatalf("no windows dropped past the cap (windows=%d)", p.Windows)
	}
	if n := len(g.WindowLog()); n != maxWindowLog {
		t.Fatalf("window log holds %d records, want cap %d", n, maxWindowLog)
	}
	// Lanes stay exact even once the log saturates.
	var laneEvents, fired uint64
	for s := 0; s < g.Shards(); s++ {
		laneEvents += p.PerShard[s].Events
		fired += g.Shard(s).fired
	}
	if laneEvents != fired {
		t.Fatalf("capped lanes drifted: %d events recorded, %d fired", laneEvents, fired)
	}
}

// TestShardProfileSingleShard: the profiler also works on a one-shard
// group, whose windows span whole Run calls.
func TestShardProfileSingleShard(t *testing.T) {
	g, err := NewShardGroup(11, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.EnableProfiling()
	g.Shard(0).Every(5, 500, func() {})
	g.Run(20000, 1)
	p := g.Profile()
	if p.Shards != 1 || len(p.PerShard) != 1 {
		t.Fatalf("profile shape: %+v", p)
	}
	if ev := p.PerShard[0].Events; ev == 0 || ev != g.Shard(0).fired {
		t.Fatalf("lane events %d, engine fired %d", ev, g.Shard(0).fired)
	}
}
