package sim

import (
	"flag"
	"fmt"
	"sort"
	"testing"
)

// flagShards lets CI widen the worker sweep: `go test -shards=4` adds
// that worker count to every property run (the race-short job runs the
// suite under -race -shards=4 to exercise parallel window execution).
var flagShards = flag.Int("shards", 0, "extra worker count to exercise in shard property tests")

func propWorkerCounts() []int {
	ws := []int{1, 2, 4, 8}
	if *flagShards > 0 {
		ws = append(ws, *flagShards)
	}
	return ws
}

// propRun drives a generated 4-shard workload to completion and returns
// the shard-order merged firing log plus the group digest. The workload
// mixes local schedules, boundary-rounded cross-shard sends (rounding
// forces same-instant arrivals at window edges) and cancels — all
// landing at or near shard boundaries where ordering bugs would live.
func propRun(t *testing.T, seed uint64, workers int) (string, uint64) {
	t.Helper()
	const (
		shards  = 4
		L       = Duration(1000)
		horizon = Time(300_000)
		budget  = 400
	)
	g, err := NewShardGroup(seed, shards, L)
	if err != nil {
		t.Fatal(err)
	}
	var (
		lines   [shards][]string // appended only by the owning shard
		budgets [shards]int
		kept    [shards]Event // cancellable event handle, per shard
	)
	for s := 0; s < shards; s++ {
		s := s
		e := g.Shard(s)
		rng := e.RNG("driver")
		budgets[s] = budget
		var step func()
		step = func() {
			if budgets[s] <= 0 {
				return
			}
			budgets[s]--
			now := e.Now()
			switch rng.Intn(12) {
			case 0, 1, 2, 3: // plain local event
				v := rng.Intn(1_000_000)
				e.Schedule(now.Add(Duration(1+rng.Intn(1500))), Func(func() {
					lines[s] = append(lines[s], fmt.Sprintf("local s=%d v=%d @%d", s, v, e.Now()))
				}))
			case 4, 5, 6: // cross-shard send, rounded up onto a coarse grid
				dst := rng.Intn(shards)
				v := rng.Intn(1_000_000)
				at := now.Add(L + Duration(rng.Intn(1024)))
				if rem := int64(at) % 512; rem != 0 {
					at = at.Add(Duration(512 - rem))
				}
				g.Send(s, dst, at, call, func() {
					lines[dst] = append(lines[dst], fmt.Sprintf("x %d->%d v=%d @%d", s, dst, v, g.Shard(dst).Now()))
				}, 0)
			case 7: // cancellable event; the handle may be cancelled later
				v := rng.Intn(1_000_000)
				kept[s] = e.Schedule(now.Add(Duration(1+rng.Intn(900))), Func(func() {
					lines[s] = append(lines[s], fmt.Sprintf("kept s=%d v=%d @%d", s, v, e.Now()))
				}))
			case 8: // cancel the kept event (no-op if fired or zero)
				kept[s].Cancel()
				kept[s] = Event{}
			default: // idle step
			}
			e.Schedule(now.Add(Duration(1+rng.Intn(700))), Func(step))
		}
		e.Schedule(Time(1+s), Func(step))
	}
	g.Run(horizon, workers)
	var merged string
	for s := 0; s < shards; s++ {
		for _, ln := range lines[s] {
			merged += ln + "\n"
		}
	}
	return merged, groupDigest(g)
}

// TestShardPropWorkers pins the core determinism contract: for a fixed
// partition, the worker count is invisible — every firing log and the
// full group digest are byte-identical for any number of worker
// goroutines executing the windows.
func TestShardPropWorkers(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		refLog, refDigest := propRun(t, seed, 1)
		if refLog == "" {
			t.Fatalf("seed %d produced an empty log; workload generator is broken", seed)
		}
		for _, workers := range propWorkerCounts() {
			log, digest := propRun(t, seed, workers)
			if digest != refDigest {
				t.Errorf("seed %d workers=%d digest %#x != serial %#x", seed, workers, digest, refDigest)
			}
			if log != refLog {
				t.Errorf("seed %d workers=%d firing log diverged from serial", seed, workers)
			}
		}
	}
}

// partRun executes the same logical 8-node workload on a P-shard
// partition (node n lives on shard n%P) and returns the globally sorted
// event log. Node behavior is driven entirely by the node's own named
// RNG stream and its own wake chain, so the physics are independent of
// placement; times are kept on disjoint grids (wakes on 64s, deliveries
// on 256s, cancellables on odd instants) so no cancel ever ties with a
// fire and ordering is never placement-dependent.
func partRun(t *testing.T, seed uint64, parts int) []string {
	t.Helper()
	const (
		nodes   = 8
		L       = Duration(1000)
		horizon = Time(400_000)
		budget  = 300
	)
	g, err := NewShardGroup(seed, parts, L)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]string, parts) // appended only by the owning shard
	pending := make([]Event, nodes)  // touched only by the owning node
	for n := 0; n < nodes; n++ {
		n := n
		shard := n % parts
		e := g.Shard(shard)
		rng := e.RNG(fmt.Sprintf("node%d", n))
		left := budget
		var wake func()
		wake = func() {
			if left <= 0 {
				return
			}
			left--
			now := e.Now()
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // work item
				v := rng.Intn(1_000_000)
				lines[shard] = append(lines[shard], fmt.Sprintf("w t=%d node=%d v=%d", now, n, v))
			case 4, 5, 6: // message to a peer, delivery on the 256 grid
				m := rng.Intn(nodes)
				v := rng.Intn(1_000_000)
				at := now.Add(L + Duration(rng.Intn(4096)))
				if rem := int64(at) % 256; rem != 0 {
					at = at.Add(Duration(256 - rem))
				}
				dstShard := m % parts
				deliver := func() {
					lines[dstShard] = append(lines[dstShard], fmt.Sprintf("r t=%d node=%d from=%d v=%d", at, m, n, v))
				}
				if dstShard == shard {
					e.Schedule(at, Func(deliver))
				} else {
					g.Send(shard, dstShard, at, call, deliver, 0)
				}
			case 7: // cancellable event at an odd instant
				v := rng.Intn(1_000_000)
				at := now.Add(Duration(2*rng.Intn(600) + 1))
				pending[n] = e.Schedule(at, Func(func() {
					lines[shard] = append(lines[shard], fmt.Sprintf("c t=%d node=%d v=%d", at, n, v))
				}))
			case 8: // cancel the pending cancellable (no-op if fired)
				pending[n].Cancel()
				pending[n] = Event{}
			}
			e.Schedule(now.Add(Duration(64*(1+rng.Intn(40)))), Func(wake))
		}
		e.Schedule(Time(64*(n+1)), Func(wake))
	}
	g.Run(horizon, parts)
	var all []string
	for _, ls := range lines {
		all = append(all, ls...)
	}
	sort.Strings(all)
	return all
}

// TestShardPropPartitions checks the physics are partition-independent:
// the same logical workload placed on 1, 2, 4, or 8 shards produces the
// same set of (time, node, value) events. Engine digests legitimately
// differ across partitions (the v3 digest pins the shard layout), so
// this compares the sorted event logs — the simulation's observable
// output — and separately that each partition is self-deterministic.
func TestShardPropPartitions(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ref := partRun(t, seed, 1)
		if len(ref) == 0 {
			t.Fatalf("seed %d produced an empty log", seed)
		}
		for _, parts := range []int{2, 4, 8} {
			got := partRun(t, seed, parts)
			if len(got) != len(ref) {
				t.Errorf("seed %d parts=%d produced %d events, serial %d", seed, parts, len(got), len(ref))
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("seed %d parts=%d event %d: %q != %q", seed, parts, i, got[i], ref[i])
					break
				}
			}
		}
	}
}
