package steelnetd

import (
	"sync/atomic"
	"time"

	"steelnet/internal/enc"
	"steelnet/internal/obs"
	"steelnet/internal/telemetry"
)

// Frame is one fan-out message: a fully formatted SSE frame plus the
// run it came from, so subscribers can filter per run without parsing.
type Frame struct {
	Run  string
	Data []byte // "event: …\ndata: …\n\n"
}

// Hub is the fleet-wide fan-out: every hosted run publishes its changed
// tags, rule firings and SLO breaches here, and every gateway SSE
// client receives them through a bounded queue. It is obs.Fanout keyed
// by run ID — the same drop-on-full, evict-on-stall discipline as a
// run's own obs.Broker — plus the fleet's counters and metric families.
// The hot path does no allocation beyond the frame the caller already
// built: the Frame struct is sent by value and the payload bytes are
// shared.
type Hub struct {
	fan       *obs.Fanout[Frame]
	published atomic.Uint64
	fanoutNS  *telemetry.AtomicHistogram
	reg       *telemetry.Registry
}

// NewHub builds a hub and registers its metric families (subscriber
// count, frames published/dropped, evictions, fan-out latency
// histogram) on its own registry, rendered by the gateway's /metrics.
func NewHub() *Hub {
	h := &Hub{fan: obs.NewFanout[Frame](), reg: telemetry.NewRegistry()}
	h.reg.Gauge("steelnetd_hub_subscribers", nil, "Current hub fan-out width.",
		func() float64 { return float64(h.Subscribers()) })
	h.reg.Counter("steelnetd_hub_frames_published_total", nil, "Frames offered to the hub.",
		h.published.Load)
	h.reg.Counter("steelnetd_hub_frames_dropped_total", nil, "Frames dropped on full subscriber queues.",
		h.fan.Dropped)
	h.reg.Counter("steelnetd_hub_evicted_total", nil, "Subscribers evicted for not draining.",
		h.fan.Evicted)
	h.reg.Gauge("steelnetd_hub_queue_high_water", nil, "Deepest subscriber queue ever seen.",
		func() float64 { return float64(h.QueueHighWater()) })
	h.reg.Gauge("steelnetd_hub_max_lag", nil, "Deepest subscriber queue right now.",
		func() float64 { return float64(h.MaxLag()) })
	h.fanoutNS = h.reg.NewAtomicHistogram("steelnetd_hub_fanout_ns", nil,
		"Wall time to offer one frame to every subscriber, nanoseconds.",
		[]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8})
	return h
}

// Registry returns the hub's metric registry. All its values are
// atomic-backed, so rendering concurrently with publishes is safe.
func (h *Hub) Registry() *telemetry.Registry { return h.reg }

// SetLimits overrides the subscriber queue depth and eviction threshold
// (n <= 0 keeps the current value). Call before subscribers attach.
func (h *Hub) SetLimits(buf, evictAfter int) { h.fan.SetLimits(buf, evictAfter) }

// Subscribe registers a fan-out slot. run filters to one run's frames
// ("" = the whole fleet). The hub closes ch on eviction; cancel is
// idempotent and safe after eviction.
func (h *Hub) Subscribe(run string) (ch <-chan Frame, cancel func()) { return h.fan.Subscribe(run) }

// Subscribers returns the current fan-out width.
func (h *Hub) Subscribers() int { return h.fan.Subscribers() }

// Published, Dropped and Evicted expose the hub counters.
func (h *Hub) Published() uint64 { return h.published.Load() }
func (h *Hub) Dropped() uint64   { return h.fan.Dropped() }
func (h *Hub) Evicted() uint64   { return h.fan.Evicted() }

// QueueHighWater returns the deepest any subscriber queue has been.
func (h *Hub) QueueHighWater() int { return h.fan.HighWater() }

// MaxLag returns the deepest current subscriber queue — how far the
// slowest attached consumer is behind, in pending frames.
func (h *Hub) MaxLag() int { return h.fan.MaxLag() }

// FanoutQuantile returns the q quantile of per-publish fan-out wall
// time in nanoseconds (bucket upper-bound estimate).
func (h *Hub) FanoutQuantile(q float64) float64 { return h.fanoutNS.Quantile(q) }

// Publish offers one frame to every matching subscriber without
// blocking.
func (h *Hub) Publish(f Frame) {
	start := time.Now()
	h.published.Add(1)
	h.fan.Offer(f.Run, f)
	h.fanoutNS.Observe(time.Since(start).Nanoseconds())
}

// sseFrame formats one SSE frame: "event: <event>\ndata: <data>\n\n".
// The payload is built once per publish and shared by every subscriber.
func sseFrame(event string, data []byte) []byte {
	return enc.AppendSSE(make([]byte, 0, len(event)+len(data)+18), event, data)
}

// appendTagsPayload renders a changed-tag batch as JSON:
//
//	{"run":"r1","seq":3,"sim_ns":150000000,"tags":[{"name":"…","value":1}, …]}
//
// Hand-rolled (strconv appends into one buffer) because this runs once
// per slice per run — the gateway's hottest serialization — and
// encoding/json would allocate per tag.
func appendTagsPayload(b []byte, run string, seq uint64, simNS int64, tags []TagChange) []byte {
	b = append(b, `{"run":`...)
	b = enc.AppendString(b, run)
	b = append(b, `,"seq":`...)
	b = enc.AppendUint(b, seq)
	b = append(b, `,"sim_ns":`...)
	b = enc.AppendInt(b, simNS)
	b = append(b, `,"tags":[`...)
	for i, t := range tags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = enc.AppendString(b, t.Name)
		b = append(b, `,"value":`...)
		b = enc.AppendFloat(b, t.Value)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return b
}

// TagChange is one changed tag in a republish batch.
type TagChange struct {
	Name  string
	Value float64
}
