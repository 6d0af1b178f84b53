package steelnetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"steelnet/internal/obs"
	"steelnet/internal/tshist"
)

// NewServeMux builds the gateway's HTTP surface on a private mux:
//
//	/                       index
//	/healthz                liveness + fleet counters
//	/metrics                Prometheus exposition of the hub registry
//	/journal                run-lifecycle audit journal (JSONL)
//	/trace                  stitched fleet Chrome/Perfetto trace
//	/runs                   GET list, POST start (RunSpec JSON body)
//	/runs/{id}              GET status, DELETE stop
//	/runs/{id}/metrics      the run's Prometheus exposition
//	/runs/{id}/history      the run's time-series history (tshist)
//	/runs/{id}/events       the run's SSE stream (deltas + breaches)
//	/events                 fleet-wide SSE fan-out (?run= filters)
//	/backends               installed northbound backends
//	/backends/{name}/log    a fake backend's JSONL publish log
//
// Every route is wrapped in the RED middleware: request counts by
// status class, latency histograms and (with tracing on) request spans
// all land on the daemon /metrics and /trace, labeled by the route
// pattern. Build the mux once per gateway — registration appends to
// the hub registry.
func NewServeMux(g *Gateway) *http.ServeMux {
	mux := http.NewServeMux()
	m := newHTTPMetrics(g)
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, m.wrap(route, h))
	}
	handle("/{$}", "/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "steelnetd gateway\n\n/healthz\n/metrics\n/journal\n/trace\n/runs\n/runs/{id}\n/runs/{id}/{metrics,history,events}\n/events (SSE)\n/backends\n/backends/{name}/log\n")
	})
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := g.Hub()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"runs":%d,"subscribers":%d,"published":%d,"dropped":%d,"evicted":%d,"queue_high_water":%d,"journal_records":%d}`+"\n",
			len(g.List()), h.Subscribers(), h.Published(), h.Dropped(), h.Evicted(), h.QueueHighWater(), g.Journal().Total())
	})
	handle("GET /metrics", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.Hub().Registry().WritePrometheus(w) //nolint:errcheck // client went away
	})
	handle("GET /journal", "/journal", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		g.Journal().WriteLog(w) //nolint:errcheck // client went away
	})
	handle("GET /trace", "/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		g.WriteTrace(w) //nolint:errcheck // client went away
	})
	handle("GET /runs", "/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, g.List())
	})
	handle("POST /runs", "/runs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := DecodeRunSpec(http.MaxBytesReader(w, r.Body, maxRunSpecBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad run spec: "+err.Error(), status)
			return
		}
		id, err := g.Start(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, map[string]string{"id": id})
	})
	handle("GET /runs/{id}", "/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := g.Status(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, st)
	})
	handle("DELETE /runs/{id}", "/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := g.Stop(id); err != nil {
			http.NotFound(w, r)
			return
		}
		g.Wait(id) //nolint:errcheck // terminal state reported by status
		st, _ := g.Status(id)
		writeJSON(w, st)
	})
	// Per-run telemetry: mount the run's obs.Broker handlers.
	brokerRoute := func(pattern, route string, serve func(b *obs.Broker, w http.ResponseWriter, r *http.Request)) {
		handle(pattern, route, func(w http.ResponseWriter, r *http.Request) {
			b, ok := g.Broker(r.PathValue("id"))
			if !ok {
				http.NotFound(w, r)
				return
			}
			serve(b, w, r)
		})
	}
	brokerRoute("GET /runs/{id}/metrics", "/runs/{id}/metrics", (*obs.Broker).ServeMetrics)
	brokerRoute("GET /runs/{id}/events", "/runs/{id}/events", (*obs.Broker).ServeEvents)
	handle("GET /runs/{id}/history", "/runs/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := g.History(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		tshist.ServeQuery(w, r, rec, id)
	})
	handle("GET /events", "/events", func(w http.ResponseWriter, r *http.Request) {
		serveHubEvents(g.Hub(), w, r)
	})
	handle("GET /backends", "/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, g.BackendNames())
	})
	handle("GET /backends/{name}/log", "/backends/{name}/log", func(w http.ResponseWriter, r *http.Request) {
		p, ok := g.Backend(r.PathValue("name"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		f, ok := p.(*FakeBackend)
		if !ok {
			http.Error(w, "backend keeps no log", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		f.WriteLog(w) //nolint:errcheck // client went away
	})
	return mux
}

// serveHubEvents streams the fleet-wide fan-out over SSE until the
// client disconnects or the hub evicts the subscription.
func serveHubEvents(h *Hub, w http.ResponseWriter, r *http.Request) {
	h.fan.ServeSSE(w, r, r.URL.Query().Get("run"), func() string {
		return fmt.Sprintf("event: hello\ndata: {\"subscribers\":%d}\n\n", h.Subscribers())
	}, func(f Frame) []byte { return f.Data })
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client went away
}

// maxRunSpecBytes bounds a POST /runs body (413 beyond it). A run spec
// is a few hundred bytes; its rule set is the only part that grows.
const maxRunSpecBytes = 1 << 20

// Server is the gateway's HTTP server.
type Server struct {
	g    *Gateway
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Listen starts serving g on addr (host:port; port 0 picks a free one)
// and returns immediately; the accept loop runs on its own goroutine.
func Listen(addr string, g *Gateway) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{g: g, ln: ln, srv: obs.NewHTTPServer(NewServeMux(g)), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	}()
	return s, nil
}

// Done is closed when the accept loop exits (after Close, or a listener
// failure). The daemon selects on it next to its signal channel.
func (s *Server) Done() <-chan struct{} { return s.done }

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server (SSE streams see their contexts
// cancelled) and then the gateway's runs.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.g.Close()
	return err
}
