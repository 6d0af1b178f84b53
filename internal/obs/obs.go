// Package obs serves the simulator's own runtime telemetry over HTTP: a
// Prometheus /metrics endpoint backed by the telemetry.Registry, a JSON
// shard-profile snapshot, net/http/pprof, and an SSE stream of metric
// deltas and SLO breaches.
//
// The design problem is that the simulation is deterministic and
// single-goroutine (per shard) while HTTP handlers run on arbitrary
// goroutines. The seam is the Broker: the simulation goroutine calls
// Publish at safe points (window barriers, run slices, end of run),
// which renders an immutable Snapshot and swaps it in atomically; the
// handlers only ever read the latest published snapshot. The registry's
// func-backed metrics are therefore read exclusively on the simulation
// goroutine, publishing never blocks on subscribers (slow SSE clients
// drop payloads, counted), and the simulation's outputs stay
// byte-identical whether or not anyone is watching. The steelnetd
// gateway holds one Broker per hosted run, and builds its fleet-wide hub
// on the same Fanout and SSE writer (fanout.go).
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"steelnet/internal/enc"
	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
	"steelnet/internal/tshist"
)

// Snapshot is one published view of the run. Immutable after Publish.
type Snapshot struct {
	// Seq increments with every publish.
	Seq uint64 `json:"seq"`
	// SimNS is the simulated time at the publish point, -1 when the
	// publisher has no clock (e.g. the CLI's final end-of-run publish).
	SimNS int64 `json:"sim_ns"`
	// Metrics is the registry rendered in Prometheus text format.
	Metrics string `json:"-"`
	// Profile is the JSON-marshaled shard profile, nil when the run is
	// not sharded (or the harness did not publish one).
	Profile json.RawMessage `json:"profile,omitempty"`
}

// Delta is one metric's change between consecutive publishes.
type Delta struct {
	Metric string  `json:"metric"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	Prev   float64 `json:"prev"`
}

// Broker owns the latest snapshot and the SSE fan-out. Publish must be
// called from the goroutine that owns the registry's components (the
// simulation goroutine); everything else is safe for concurrent use.
// A steelnetd gateway holds one Broker per hosted run and mounts the
// Serve* handlers under its own routes.
type Broker struct {
	cur  atomic.Pointer[Snapshot]
	prev map[string]float64 // last published metric values, publisher-only

	// state is a free-form lifecycle label ("running", "done", …) the
	// run's owner sets; healthz reports it so probes can tell a healthy
	// idle endpoint from a stalled one. lastPubWall is the wall-clock
	// nanosecond of the latest Publish (0 = never), the other half of
	// that distinction: state says what the run claims, publish age says
	// when it last proved it.
	state       atomic.Pointer[string]
	lastPubWall atomic.Int64
	// rec, when set, records every published metric value into a bounded
	// time-series history served at /history.
	rec atomic.Pointer[tshist.Recorder]

	// values and deltas are the publisher's scratch, kept between
	// publishes so a warm Publish reads and diffs without growing them.
	values []telemetry.MetricValue
	deltas []Delta

	// fan carries formatted SSE frames to the /events subscribers.
	fan *Fanout[[]byte]

	mu            sync.Mutex // guards breachesTotal
	breachesTotal uint64
}

// NewBroker returns an empty broker; until the first Publish the
// endpoints serve an empty snapshot.
func NewBroker() *Broker {
	b := &Broker{prev: map[string]float64{}, fan: NewFanout[[]byte]()}
	b.cur.Store(&Snapshot{SimNS: -1})
	return b
}

// SetState records the run's lifecycle phase for healthz ("running",
// "done", …). Safe from any goroutine.
func (b *Broker) SetState(s string) { b.state.Store(&s) }

// State returns the lifecycle phase set by SetState ("" before any).
func (b *Broker) State() string {
	if p := b.state.Load(); p != nil {
		return *p
	}
	return ""
}

// SetRecorder attaches a time-series recorder: every subsequent Publish
// appends each metric's value to it, and /history serves it. Attach
// before publishing begins; nil detaches.
func (b *Broker) SetRecorder(rec *tshist.Recorder) { b.rec.Store(rec) }

// Recorder returns the attached history recorder (nil when none).
func (b *Broker) Recorder() *tshist.Recorder { return b.rec.Load() }

// LastPublishAge returns the wall-clock time since the latest Publish,
// and false if nothing was ever published.
func (b *Broker) LastPublishAge() (time.Duration, bool) {
	t := b.lastPubWall.Load()
	if t == 0 {
		return 0, false
	}
	return time.Duration(time.Now().UnixNano() - t), true
}

// Publish renders reg and profile into a new immutable snapshot, swaps
// it in, and streams the metric deltas since the previous publish to
// SSE subscribers. profile is JSON-marshaled as given (the campus
// harness passes its sim.ShardProfile); a nil profile carries the last
// published one forward, so a publisher without a profile in hand (the
// CLI's end-of-run publish) refreshes metrics without blanking /shards.
// Call only from the simulation goroutine, at safe points.
func (b *Broker) Publish(reg *telemetry.Registry, profile any, simNS int64) error {
	// One walk of the registry yields both the text snapshot and the
	// numbers the deltas and the history are cut from.
	text, values := reg.Export(b.values[:0])
	b.values = values
	prev := b.cur.Load()
	// Export made text for this render alone and nothing else refers to
	// it, so the snapshot takes it as its string: no byte of it is ever
	// written again.
	snap := &Snapshot{Seq: prev.Seq + 1, SimNS: simNS, Metrics: unsafe.String(unsafe.SliceData(text), len(text)), Profile: prev.Profile}
	if profile != nil {
		pj, err := json.Marshal(profile)
		if err != nil {
			return fmt.Errorf("obs: marshal shard profile: %w", err)
		}
		snap.Profile = pj
	}

	// Clockless publishes (simNS < 0: the CLI's end-of-run refresh) skip
	// history — a point needs a simulated timestamp to live on the axis.
	rec := b.rec.Load()
	if simNS < 0 {
		rec = nil
	}
	deltas := b.deltas[:0]
	for _, v := range values {
		if rec != nil {
			rec.Append(v.Key, simNS, v.Value)
		}
		if prev, ok := b.prev[v.Key]; !ok || prev != v.Value {
			deltas = append(deltas, Delta{Metric: v.Name, Labels: v.Labels, Value: v.Value, Prev: prev})
			b.prev[v.Key] = v.Value
		}
	}
	b.deltas = deltas
	b.cur.Store(snap)
	b.lastPubWall.Store(time.Now().UnixNano())
	if len(deltas) > 0 {
		payload := struct {
			Seq    uint64  `json:"seq"`
			SimNS  int64   `json:"sim_ns"`
			Deltas []Delta `json:"deltas"`
		}{snap.Seq, simNS, deltas}
		b.broadcast("metrics", payload)
	}
	return nil
}

// PublishBreaches streams SLO breaches to subscribers. Callers pass the
// watchdog's full breach log each time; the broker remembers how many it
// has already sent, so re-publishing the growing log is idempotent.
func (b *Broker) PublishBreaches(breaches []intnet.Breach) {
	b.mu.Lock()
	if uint64(len(breaches)) <= b.breachesTotal {
		// Nothing new — including a shorter log (a publisher holding a
		// subset view, e.g. a CLI watchdog not yet fed the merged
		// per-shard logs). The high-water mark never rewinds, so a
		// later full log cannot re-send what subscribers already saw.
		b.mu.Unlock()
		return
	}
	fresh := breaches[b.breachesTotal:]
	b.breachesTotal = uint64(len(breaches))
	b.mu.Unlock()
	for _, br := range fresh {
		b.broadcast("breach", br)
	}
}

// Current returns the latest published snapshot. Never nil.
func (b *Broker) Current() *Snapshot { return b.cur.Load() }

// Dropped returns the number of SSE payloads discarded because a
// subscriber's buffer was full.
func (b *Broker) Dropped() uint64 { return b.fan.Dropped() }

// Evicted returns the number of subscribers the broker disconnected for
// not draining their buffers.
func (b *Broker) Evicted() uint64 { return b.fan.Evicted() }

// Subscribers returns the current fan-out width.
func (b *Broker) Subscribers() int { return b.fan.Subscribers() }

// Subscribe registers an SSE payload channel; cancel unregisters it.
// Payloads are fully formatted SSE frames ("event: …\ndata: …\n\n").
// See Fanout.Subscribe for the eviction contract.
func (b *Broker) Subscribe() (ch <-chan []byte, cancel func()) { return b.fan.Subscribe("") }

// broadcast formats one SSE frame and offers it to every subscriber.
func (b *Broker) broadcast(event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	b.fan.Offer("", enc.AppendSSE(make([]byte, 0, len(event)+len(data)+18), event, data))
}

// ServeHealthz reports liveness plus the latest seq/sim time, the run's
// lifecycle state, the wall-clock age of the latest publish (-1: never
// published — distinguishing "idle because done" from "stalled"), and
// the fan-out drop counter.
func (b *Broker) ServeHealthz(w http.ResponseWriter, r *http.Request) {
	s := b.Current()
	ageMS := int64(-1)
	if age, ok := b.LastPublishAge(); ok {
		ageMS = age.Milliseconds()
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"state":%q,"seq":%d,"sim_ns":%d,"last_publish_age_ms":%d,"sse_dropped":%d}`+"\n",
		b.State(), s.Seq, s.SimNS, ageMS, b.Dropped())
}

// ServeHistory serves the attached recorder's time-series history (404
// when no recorder is attached) — see tshist.ServeQuery for the query
// grammar.
func (b *Broker) ServeHistory(w http.ResponseWriter, r *http.Request) {
	tshist.ServeQuery(w, r, b.Recorder(), "sim")
}

// ServeMetrics writes the latest snapshot's Prometheus text exposition.
func (b *Broker) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.Current().Metrics)
}

// ServeShards writes the latest JSON shard profile (404 when the run is
// not sharded or profiling is disabled).
func (b *Broker) ServeShards(w http.ResponseWriter, r *http.Request) {
	s := b.Current()
	if s.Profile == nil {
		http.Error(w, "no shard profile published (run not sharded, or profiling disabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.Profile)
	fmt.Fprintln(w)
}

// ServeEvents streams SSE frames (metric deltas, SLO breaches) until the
// client disconnects or the broker evicts the subscription.
func (b *Broker) ServeEvents(w http.ResponseWriter, r *http.Request) {
	b.fan.ServeSSE(w, r, "", func() string {
		s := b.Current()
		return fmt.Sprintf("event: hello\ndata: {\"seq\":%d,\"sim_ns\":%d}\n\n", s.Seq, s.SimNS)
	}, func(p []byte) []byte { return p })
}

const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns a server for h with the limits every steelnet
// listener sets: readHeaderTimeout for a client to finish its request
// header, idleTimeout for a keep-alive connection to sit idle, and no
// write timeout — the SSE streams are written for as long as the client
// stays.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Server is the live telemetry HTTP server.
type Server struct {
	b   *Broker
	ln  net.Listener
	srv *http.Server
}

// NewMux builds the endpoint's routes on a private mux (never the
// DefaultServeMux — tests run several servers in one process):
//
//	/            index
//	/healthz     liveness + run state + latest seq/sim time + publish age
//	/metrics     Prometheus text exposition of the latest snapshot
//	/shards      JSON shard-profile snapshot (404 when not sharded)
//	/history     bounded time-series history (404 without a recorder)
//	/events      SSE stream: metric deltas + SLO breaches
//	/debug/pprof the standard net/http/pprof handlers
func NewMux(b *Broker) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "steelnet obs endpoint\n\n/healthz\n/metrics\n/shards\n/history\n/events (SSE)\n/debug/pprof/\n")
	})
	mux.HandleFunc("/healthz", b.ServeHealthz)
	mux.HandleFunc("/metrics", b.ServeMetrics)
	mux.HandleFunc("/shards", b.ServeShards)
	mux.HandleFunc("/history", b.ServeHistory)
	mux.HandleFunc("/events", b.ServeEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Listen starts serving b on addr (host:port; port 0 picks a free one)
// and returns immediately; the accept loop runs on its own goroutine.
func Listen(addr string, b *Broker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{b: b, ln: ln, srv: NewHTTPServer(NewMux(b))}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes active connections (including SSE
// streams, whose request contexts are cancelled).
func (s *Server) Close() error { return s.srv.Close() }
