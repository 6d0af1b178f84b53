package telemetry

import (
	"fmt"
	"strconv"

	"steelnet/internal/sim"
)

// idSpaceShift positions a tracer's shard index in the high bits of its
// frame ids: shard s assigns ids s<<40 + 1, s<<40 + 2, … Forty low bits
// leave room for a trillion frames per shard, and the shard index of any
// cross-shard frame can be read back as id >> 40.
const idSpaceShift = 40

// SetIDSpace moves the tracer's frame-id namespace to shard's disjoint
// block. A frame's Meta.TraceID is the flow context that rides the frame
// across shard boundaries (cross-shard deliveries hand over the frame
// pointer itself), so with disjoint id spaces the per-shard timelines of
// one frame share a globally unique id and stitch without remapping.
// Must be called before the tracer assigns its first id.
func (t *Tracer) SetIDSpace(shard int) {
	if t == nil {
		return
	}
	if shard < 0 {
		panic("telemetry: negative shard id space")
	}
	if t.nextID != 0 {
		panic("telemetry: SetIDSpace after ids were assigned")
	}
	t.idBase = uint64(shard) << idSpaceShift
}

// ShardOfFrameID recovers the shard index encoded by SetIDSpace in a
// frame id's high bits — the shard whose tracer first saw the frame,
// i.e. the frame's origin shard.
func ShardOfFrameID(id uint64) int { return int(id >> idSpaceShift) }

// AbsorbEvents emits pre-merged events on the tracer verbatim — no id
// remapping, unlike MergeFrom. This is how a CLI's session tracer takes
// delivery of a sharded harness's stitched timeline (MergeShardEvents
// output) so the usual exporters and the observer see one log.
func (t *Tracer) AbsorbEvents(events []Event) {
	if t == nil {
		return
	}
	for _, e := range events {
		t.emit(e)
	}
}

// MergeShardEvents merges per-shard event streams into one causal
// timeline ordered by (T, stream index); within a stream the recorded
// order is kept. Frame ids are preserved, so a frame that crossed shards
// (disjoint id spaces via SetIDSpace) keeps one id across the merged
// log. Each stream must be time-sorted, which tracer logs are by
// construction. The result is deterministic: stream order is the
// tie-break, never a worker schedule.
func MergeShardEvents(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		var bt int64
		for s := range streams {
			i := idx[s]
			if i >= len(streams[s]) {
				continue
			}
			if best < 0 || streams[s][i].T < bt {
				best, bt = s, streams[s][i].T
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// ShardWindowEvents renders a profiled group's window log as trace
// events: one KindShardWindow span per (window, shard) the shard was
// active in, and one KindBarrier instant per window at its flush point.
// The events are time-sorted, so the stream can be handed to
// MergeShardEvents alongside the per-shard frame streams; the Chrome
// exporter turns them into per-shard lanes with barrier marks.
func ShardWindowEvents(log []sim.WindowRecord) []Event {
	if len(log) == 0 {
		return nil
	}
	names := make([]string, len(log[0].Events))
	for s := range names {
		names[s] = "shard/" + strconv.Itoa(s)
	}
	out := make([]Event, 0, len(log)*2)
	for _, w := range log {
		for s, n := range w.Events {
			if n == 0 {
				continue
			}
			out = append(out, Event{
				T:     w.StartNS,
				Kind:  KindShardWindow,
				Port:  -1,
				Node:  names[s],
				Aux:   w.EndNS - w.StartNS,
				Frame: uint64(n),
			})
		}
		out = append(out, Event{
			T:    w.EndNS,
			Kind: KindBarrier,
			Port: -1,
			Node: "barrier",
			Aux:  int64(w.Msgs),
		})
	}
	return out
}

// RegisterShardGroupMetrics exposes the group's coordinator counters and
// — when profiling is enabled — every shard's execution lane on r. The
// func-backed reads happen at snapshot time on whatever goroutine
// renders the registry; callers must render only at barriers (between
// Run calls), the same single-goroutine discipline the registry already
// demands.
func RegisterShardGroupMetrics(r *Registry, g *sim.ShardGroup) {
	if r == nil || g == nil {
		return
	}
	r.Counter("sim_shard_windows_total", nil, "synchronization windows opened by the coordinator", func() uint64 { return g.Stats().Windows })
	r.Counter("sim_shard_windows_skipped_total", nil, "idle spans fast-forwarded without running shards", func() uint64 { return g.Stats().Skipped })
	r.Counter("sim_shard_messages_total", nil, "cross-shard messages flushed at barriers", func() uint64 { return g.Stats().Messages })
	r.Gauge("sim_shard_count", nil, "shards in the group (partition size, not workers)", func() float64 { return float64(g.Shards()) })
	r.Gauge("sim_shard_lookahead_ns", nil, "conservative window bound", func() float64 { return float64(g.Lookahead()) })
	if !g.ProfilingEnabled() {
		return
	}
	r.Gauge("sim_shard_merge_high_water", nil, "largest barrier merge batch seen", func() float64 { return float64(g.Profile().MergeHighWater) })
	r.Gauge("sim_shard_imbalance", nil, "max/mean per-shard events: 1.0 is a balanced partition", func() float64 { return g.Profile().Imbalance })
	for s := 0; s < g.Shards(); s++ {
		lbl := L("shard", strconv.Itoa(s))
		lane := func() sim.ShardLaneStats { return g.LaneStats(s) }
		r.Counter("sim_shard_events_total", lbl, "events fired by the shard while profiled", func() uint64 { return lane().Events })
		r.Counter("sim_shard_active_chunks_total", lbl, "window chunks in which the shard fired events", func() uint64 { return lane().ActiveChunks })
		r.Counter("sim_shard_busy_ns_total", lbl, "wall-clock ns executing the shard's events", func() uint64 { return uint64(lane().BusyNS) })
		r.Counter("sim_shard_barrier_wait_ns_total", lbl, "wall-clock ns the shard waited at window barriers", func() uint64 { return uint64(lane().BarrierWaitNS) })
		r.Counter("sim_shard_outbox_msgs_total", lbl, "cross-shard messages the shard produced", func() uint64 { return lane().OutboxMsgs })
		r.Counter("sim_shard_occupied_ns_total", lbl, "sim-time ns of granted lookahead the shard actually used", func() uint64 { return uint64(lane().OccupiedNS) })
	}
}

// FormatShardAux decodes a KindCrossShard event's packed Aux into its
// "src->dst" form for human-facing renderings.
func FormatShardAux(aux int64) string {
	return fmt.Sprintf("%d->%d", aux>>32, aux&0xffffffff)
}
