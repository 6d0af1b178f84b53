package sim

import (
	"errors"
	"fmt"
	"testing"

	"steelnet/internal/checkpoint"
)

// call is the handler the tests send with: the argument is the func to
// run on the destination shard.
func call(arg any, _ int) { arg.(func())() }

func groupDigest(g *ShardGroup) uint64 {
	d := checkpoint.NewDigest()
	g.FoldState(d)
	return d.Sum()
}

func TestShardGroupZeroLookaheadRejected(t *testing.T) {
	if _, err := NewShardGroup(1, 4, 0); !errors.Is(err, ErrZeroLookahead) {
		t.Fatalf("4 shards with zero lookahead: got %v, want ErrZeroLookahead", err)
	}
	if _, err := NewShardGroup(1, 2, -5); !errors.Is(err, ErrZeroLookahead) {
		t.Fatalf("negative lookahead: got %v, want ErrZeroLookahead", err)
	}
	// A single shard has no cross-shard interactions: lookahead is moot.
	if _, err := NewShardGroup(1, 1, 0); err != nil {
		t.Fatalf("1 shard with zero lookahead: %v", err)
	}
	if _, err := NewShardGroup(1, 0, 100); err == nil {
		t.Fatalf("0 shards accepted")
	}
}

func TestShardGroupCrossSendDelivers(t *testing.T) {
	const L = 100
	g, err := NewShardGroup(7, 2, L)
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt Time
	g.Shard(0).Schedule(50, Func(func() {
		at := g.Shard(0).Now().Add(L)
		g.Send(0, 1, at, call, func() {
			deliveredAt = g.Shard(1).Now()
		}, 0)
	}))
	g.Run(1000, 1)
	if deliveredAt != 150 {
		t.Fatalf("cross message delivered at %v, want 150", deliveredAt)
	}
	for i := 0; i < g.Shards(); i++ {
		if now := g.Shard(i).Now(); now != 1000 {
			t.Fatalf("shard %d clock %v after Run(1000), want 1000", i, now)
		}
	}
	if g.Now() != 1000 {
		t.Fatalf("group floor %v, want 1000", g.Now())
	}
	if g.Stats().Messages != 1 {
		t.Fatalf("messages = %d, want 1", g.Stats().Messages)
	}
}

func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	const L = 100
	g, err := NewShardGroup(7, 2, L)
	if err != nil {
		t.Fatal(err)
	}
	g.Shard(0).Schedule(50, Func(func() {
		defer func() {
			if recover() == nil {
				t.Errorf("cross-shard send below lookahead did not panic")
			}
		}()
		// The window covering t=50 ends at 50+L at the earliest possible
		// start; sending for "now" is always inside it.
		g.Send(0, 1, g.Shard(0).Now(), call, func() {}, 0)
	}))
	g.Run(1000, 1)
}

func TestShardGroupSendBoundsPanics(t *testing.T) {
	g, err := NewShardGroup(1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%d,%d) did not panic", sd[0], sd[1])
				}
			}()
			g.Send(sd[0], sd[1], 1000, call, func() {}, 0)
		}()
	}
}

// buildPingPong wires a deterministic two-shard workload: shard 0 ticks
// and every tick bounces a message off shard 1, which replies. Returns
// the group and the per-shard logs.
func buildPingPong(seed uint64) (*ShardGroup, *[2][]string) {
	const L = 1000
	g, err := NewShardGroup(seed, 2, L)
	if err != nil {
		panic(err)
	}
	logs := &[2][]string{}
	var bounce func(hop int)
	bounce = func(hop int) {
		if hop >= 6 {
			return
		}
		src := hop % 2
		dst := 1 - src
		at := g.Shard(src).Now().Add(L + Duration(37*hop))
		g.Send(src, dst, at, call, func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("hop%d@%d", hop, g.Shard(dst).Now()))
			bounce(hop + 1)
		}, 0)
	}
	g.Shard(0).Schedule(10, Func(func() {
		logs[0] = append(logs[0], fmt.Sprintf("start@%d", g.Shard(0).Now()))
		bounce(0)
	}))
	g.Shard(1).Every(5, 500, Func(func() {
		logs[1] = append(logs[1], fmt.Sprintf("tick@%d", g.Shard(1).Now()))
	}))
	return g, logs
}

func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	const horizon = 20000
	ref, refLogs := buildPingPong(3)
	ref.Run(horizon, 1)
	refDigest := groupDigest(ref)
	for _, workers := range []int{2, 3, 8} {
		g, logs := buildPingPong(3)
		g.Run(horizon, workers)
		if got := groupDigest(g); got != refDigest {
			t.Fatalf("workers=%d digest %#x != serial %#x", workers, got, refDigest)
		}
		for s := 0; s < 2; s++ {
			if fmt.Sprint(logs[s]) != fmt.Sprint(refLogs[s]) {
				t.Fatalf("workers=%d shard %d log %v != serial %v", workers, s, logs[s], refLogs[s])
			}
		}
	}
}

// TestShardGroupCutPointsInvisible pins the checkpoint-critical
// property: advancing to the horizon in one Run call or in many — at
// deadlines that slice windows mid-way — produces byte-identical state.
// Windows are anchored to event content, outboxes flush only at
// completed-window barriers, and flushes merge in canonical timestamp
// order, so a caller's cut points never reach the simulation.
func TestShardGroupCutPointsInvisible(t *testing.T) {
	const horizon = 20000
	ref, refLogs := buildPingPong(3)
	ref.Run(horizon, 1)
	refDigest := groupDigest(ref)
	for _, step := range []Duration{137, 999, 1000, 5003} {
		g, logs := buildPingPong(3)
		for at := Time(0); at < horizon; {
			at = at.Add(step)
			if at > horizon {
				at = horizon
			}
			g.Run(at, 2)
		}
		if got := groupDigest(g); got != refDigest {
			t.Fatalf("chunk step %d: digest %#x != straight run %#x", step, got, refDigest)
		}
		for s := 0; s < 2; s++ {
			if fmt.Sprint(logs[s]) != fmt.Sprint(refLogs[s]) {
				t.Fatalf("chunk step %d shard %d log %v != straight %v", step, s, logs[s], refLogs[s])
			}
		}
	}
}

func TestShardGroupBarrierStarvationFastForwards(t *testing.T) {
	const L = 100
	g, err := NewShardGroup(5, 2, L)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 is busy for [0, 1000], then both shards idle until shard 1
	// wakes at 1_000_000. Fixed lookahead marching would need ~10k empty
	// windows to cross the gap.
	tk := g.Shard(0).Every(5, 10, Func(func() {}))
	g.Shard(0).Schedule(1000, Func(func() { tk.Stop() }))
	var woke Time
	g.Shard(1).Schedule(1_000_000, Func(func() { woke = g.Shard(1).Now() }))
	g.Run(2_000_000, 2)
	if woke != 1_000_000 {
		t.Fatalf("starved shard woke at %v, want 1_000_000", woke)
	}
	st := g.Stats()
	if st.Windows > 500 {
		t.Fatalf("idle gap cost %d windows; fast-forward is not working", st.Windows)
	}
	if st.Skipped == 0 {
		t.Fatalf("no skipped windows recorded across a %v idle gap", Duration(1_000_000))
	}
}

func TestShardGroupSoloEngineDigestUnchangedByLayoutPrefix(t *testing.T) {
	// A solo engine folds shard 0-of-1; a 1-shard group's engine folds
	// the same prefix, so both digest identically given identical state.
	solo := NewEngine(11)
	solo.Schedule(50, Func(func() {}))
	g, err := NewShardGroup(11, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Shard(0).Schedule(50, Func(func() {}))
	d1, d2 := checkpoint.NewDigest(), checkpoint.NewDigest()
	solo.FoldState(d1)
	g.Shard(0).FoldState(d2)
	if d1.Sum() != d2.Sum() {
		t.Fatalf("solo engine digest %#x != 1-shard group engine digest %#x", d1.Sum(), d2.Sum())
	}
}

// TestDeliverySlotsRecycle drives every shard's outbox for thousands of
// windows — each shard sends its neighbour one message every 64 ticks
// at exactly the lookahead — and counts the delivery slots once the
// traffic has drained, when every slot is back on its free list. A
// short burst makes the slots a warm run needs; a burst forty times as
// long must make none, no shard may hold more slots than it can have
// messages in flight (one per 64 ticks of lookahead, plus the one at
// the edge), and the counts are the same for every worker count. CI
// runs the package under -race, where workers 2 and 4 make a shard's
// worker and the coordinator take turns on each list.
func TestDeliverySlotsRecycle(t *testing.T) {
	const (
		L      = Duration(1024)
		period = Duration(64)
	)
	slots := func(g *ShardGroup) []int {
		n := make([]int, g.Shards())
		for d, s := range g.free {
			for ; s != nil; s = s.next {
				n[d]++
			}
		}
		return n
	}
	var want []int
	for _, workers := range []int{1, 2, 4} {
		g, err := NewShardGroup(1, 4, L)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, g.Shards()) // written by the receiving shard only
		// burst has every shard send until to, then drains the group.
		burst := func(to Time) {
			for s := 0; s < g.Shards(); s++ {
				s, e := s, g.Shard(s)
				dst := (s + 1) % g.Shards()
				recv := func(_ any, aux int) { got[dst] += aux }
				var step func()
				step = func() {
					if e.Now() < to {
						g.Send(s, dst, e.Now().Add(L), recv, nil, 1)
						e.Schedule(e.Now().Add(period), Func(step))
					}
				}
				e.Schedule(g.Now(), Func(step))
			}
			g.Run(to.Add(2*L), workers)
		}
		burst(Time(0).Add(100 * L))
		warm := slots(g)
		burst(g.Now().Add(4000 * L))
		if st := g.Stats(); st.Windows < 3000 {
			t.Fatalf("workers=%d: only %d windows", workers, st.Windows)
		}
		after := slots(g)
		for d := range after {
			if after[d] == 0 || after[d] != warm[d] || after[d] > int(L/period)+1 {
				t.Fatalf("workers=%d: shard %d has %d delivery slots (%d when warm), want a steady 1..%d",
					workers, d, after[d], warm[d], int(L/period)+1)
			}
			if want := int(4100 * L / period); got[d] != want {
				t.Fatalf("workers=%d: shard %d handled %d messages, want %d", workers, d, got[d], want)
			}
		}
		if want == nil {
			want = after
		} else if fmt.Sprint(after) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: slot counts %v, serial %v", workers, after, want)
		}
	}
}
