package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

func TestSetIDSpaceDisjointAndPreservedAcrossTracers(t *testing.T) {
	t0, t1 := NewTracer(nil), NewTracer(nil)
	t0.SetIDSpace(0)
	t1.SetIDSpace(1)

	f := &frame.Frame{}
	id := t0.FrameID(f)
	if id != 1 {
		t.Fatalf("shard 0 first id = %d, want 1", id)
	}
	// The frame crosses shards as a pointer: tracer 1 must reuse the id
	// stamped by tracer 0, not assign one from its own space.
	if got := t1.FrameID(f); got != id {
		t.Fatalf("receiving tracer reassigned id: %d, want %d", got, id)
	}
	g := &frame.Frame{}
	gid := t1.FrameID(g)
	if want := uint64(1)<<idSpaceShift + 1; gid != want {
		t.Fatalf("shard 1 first id = %#x, want %#x", gid, want)
	}
	if ShardOfFrameID(id) != 0 || ShardOfFrameID(gid) != 1 {
		t.Fatalf("ShardOfFrameID(%#x)=%d, ShardOfFrameID(%#x)=%d",
			id, ShardOfFrameID(id), gid, ShardOfFrameID(gid))
	}
	// nil tracer: all shard helpers are no-ops.
	var nilT *Tracer
	nilT.SetIDSpace(3)
	nilT.AbsorbEvents([]Event{{T: 1}})
}

func TestSetIDSpaceGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative shard", func() { NewTracer(nil).SetIDSpace(-1) })
	mustPanic("after first id", func() {
		tr := NewTracer(nil)
		tr.FrameID(&frame.Frame{})
		tr.SetIDSpace(2)
	})
}

func TestMergeShardEventsOrderAndIDs(t *testing.T) {
	s0 := []Event{
		{T: 10, Kind: KindHostTx, Node: "a", Frame: 1},
		{T: 30, Kind: KindCrossShard, Node: "a", Frame: 1, Aux: 0<<32 | 1},
	}
	s1 := []Event{
		{T: 10, Kind: KindHostTx, Node: "b", Frame: 1<<idSpaceShift | 1},
		{T: 40, Kind: KindDeliver, Node: "b", Frame: 1},
	}
	got := MergeShardEvents(s0, s1)
	want := []Event{s0[0], s1[0], s0[1], s1[1]} // equal T: stream index breaks the tie
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order:\n got %+v\nwant %+v", got, want)
	}
	// Ids pass through untouched — the whole point of disjoint id spaces.
	if got[3].Frame != 1 || got[1].Frame != 1<<idSpaceShift|1 {
		t.Fatalf("merge remapped frame ids: %+v", got)
	}
	if MergeShardEvents(nil, []Event{}) != nil {
		t.Fatal("empty merge should be nil")
	}
}

func TestAbsorbEventsVerbatim(t *testing.T) {
	dst := NewTracer(nil)
	dst.FrameID(&frame.Frame{}) // dst has assigned id 1 already
	evs := []Event{{T: 5, Kind: KindDeliver, Node: "x", Frame: 1<<idSpaceShift | 7}}
	dst.AbsorbEvents(evs)
	if got := dst.Events(); len(got) != 1 || got[0].Frame != 1<<idSpaceShift|7 {
		t.Fatalf("absorb remapped or dropped: %+v", got)
	}
}

func TestShardWindowEventsShape(t *testing.T) {
	log := []sim.WindowRecord{
		{StartNS: 0, EndNS: 100, Msgs: 2, Events: []uint32{3, 0}},
		{StartNS: 100, EndNS: 200, Msgs: 0, Events: []uint32{1, 4}},
	}
	evs := ShardWindowEvents(log)
	want := []Event{
		{T: 0, Kind: KindShardWindow, Port: -1, Node: "shard/0", Aux: 100, Frame: 3},
		{T: 100, Kind: KindBarrier, Port: -1, Node: "barrier", Aux: 2},
		{T: 100, Kind: KindShardWindow, Port: -1, Node: "shard/0", Aux: 100, Frame: 1},
		{T: 100, Kind: KindShardWindow, Port: -1, Node: "shard/1", Aux: 100, Frame: 4},
		{T: 200, Kind: KindBarrier, Port: -1, Node: "barrier", Aux: 0},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("window events:\n got %+v\nwant %+v", evs, want)
	}
	if ShardWindowEvents(nil) != nil {
		t.Fatal("empty log should render nil")
	}
}

func TestShardKindsJSONLRoundTrip(t *testing.T) {
	want := []Event{
		{T: 10, Kind: KindCrossShard, Node: "spine0", Port: 3, Frame: 1<<idSpaceShift | 2, Prio: 6, Aux: 1<<32 | 0},
		{T: 20, Kind: KindShardWindow, Node: "shard/1", Port: -1, Aux: 1000, Frame: 17},
		{T: 30, Kind: KindBarrier, Node: "barrier", Port: -1, Aux: 4},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// The Chrome exporter must render shard windows as duration slices in
// per-shard lanes, barriers as process instants, and cross-shard hops as
// thread instants carrying the decoded src->dst pair.
func TestChromeTraceShardLanes(t *testing.T) {
	evs := []Event{
		{T: 0, Kind: KindShardWindow, Port: -1, Node: "shard/0", Aux: 2000, Frame: 5},
		{T: 500, Kind: KindCrossShard, Node: "spine0", Port: 2, Frame: 9, Aux: 0<<32 | 3},
		{T: 2000, Kind: KindBarrier, Port: -1, Node: "barrier", Aux: 1},
	}
	tes := decodeChrome(t, evs)
	var window, barrier, cross, shardLane int
	for _, te := range tes {
		switch {
		case te["ph"] == "M" && te["name"] == "thread_name":
			if args, _ := te["args"].(map[string]any); args["name"] == "shard/0" {
				shardLane++
			}
		case te["name"] == "window":
			window++
			if te["ph"] != "X" || te["cat"] != "shard" {
				t.Fatalf("window event = %+v", te)
			}
			if te["dur"].(float64) != 2 { // 2000 ns = 2 µs
				t.Fatalf("window dur = %v µs, want 2", te["dur"])
			}
			if args := te["args"].(map[string]any); args["events"].(float64) != 5 {
				t.Fatalf("window args = %+v", args)
			}
		case te["name"] == "barrier":
			barrier++
			if te["ph"] != "i" || te["s"] != "p" {
				t.Fatalf("barrier event = %+v", te)
			}
		case te["name"] == "cross-shard":
			cross++
			if te["ph"] != "i" {
				t.Fatalf("cross-shard event = %+v", te)
			}
			if args := te["args"].(map[string]any); args["shards"] != "0->3" {
				t.Fatalf("cross-shard args = %+v", args)
			}
		}
	}
	if shardLane != 1 || window != 1 || barrier != 1 || cross != 1 {
		t.Fatalf("lanes=%d windows=%d barriers=%d cross=%d, want 1 each",
			shardLane, window, barrier, cross)
	}
}

func TestFormatShardAux(t *testing.T) {
	if got := FormatShardAux(2<<32 | 7); got != "2->7" {
		t.Fatalf("FormatShardAux = %q, want 2->7", got)
	}
}

func TestRegisterShardGroupMetrics(t *testing.T) {
	build := func(profiled bool) *sim.ShardGroup {
		g, err := sim.NewShardGroup(1, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		if profiled {
			g.EnableProfiling()
		}
		g.Shard(0).Every(10, 50, func() {})
		g.Shard(0).Schedule(40, func() {
			g.Send(0, 1, g.Shard(0).Now().Add(100), func(any, int) {}, nil, 0)
		})
		g.Run(1000, 1)
		return g
	}
	render := func(g *sim.ShardGroup) string {
		r := NewRegistry()
		RegisterShardGroupMetrics(r, g)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	plain := render(build(false))
	for _, fam := range []string{
		"sim_shard_windows_total", "sim_shard_messages_total", "sim_shard_count 2",
		"sim_shard_lookahead_ns 100",
	} {
		if !strings.Contains(plain, fam) {
			t.Fatalf("unprofiled exposition missing %q:\n%s", fam, plain)
		}
	}
	if strings.Contains(plain, "sim_shard_events_total") {
		t.Fatalf("unprofiled exposition has per-shard lanes:\n%s", plain)
	}

	prof := render(build(true))
	for _, fam := range []string{
		`sim_shard_events_total{shard="0"}`, `sim_shard_events_total{shard="1"}`,
		`sim_shard_outbox_msgs_total{shard="0"} 1`, "sim_shard_imbalance",
		"sim_shard_merge_high_water", `sim_shard_occupied_ns_total{shard="0"}`,
	} {
		if !strings.Contains(prof, fam) {
			t.Fatalf("profiled exposition missing %q:\n%s", fam, prof)
		}
	}
	// Nil registry and nil group are no-ops.
	RegisterShardGroupMetrics(nil, build(false))
	RegisterShardGroupMetrics(NewRegistry(), nil)
}

func TestRegistryValues(t *testing.T) {
	r := NewRegistry()
	n := uint64(3)
	r.Counter("zz_total", nil, "", func() uint64 { return n })
	r.Counter("aa_total", L("x", "1"), "", func() uint64 { return 7 })
	r.Gauge("gg", nil, "", func() float64 { return 2.5 })
	h := r.NewAtomicHistogram("hh", nil, "", []float64{1, 10})
	h.Observe(1)
	h.Observe(5)

	got := r.Values()
	want := []MetricValue{
		{"aa_total", `{x="1"}`, `aa_total{x="1"}`, 7},
		{"gg", "", "gg", 2.5},
		{"hh_count", "", "hh_count", 2},
		{"hh_sum", "", "hh_sum", 6},
		{"zz_total", "", "zz_total", 3},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Values:\n got %v\nwant %v", got, want)
	}
	// Func-backed reads are live: the next call sees the new value.
	n = 9
	if got := r.Values(); got[len(got)-1].Value != 9 {
		t.Fatalf("Values not live: %v", got)
	}
	var nilR *Registry
	if nilR.Values() != nil {
		t.Fatal("nil registry Values should be nil")
	}
}
