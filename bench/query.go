package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"time"

	"steelnet/internal/steelnetd"
)

// querySize sizes gateway_query.
type querySize struct {
	runs         int           // finished runs the gateway holds
	horizon      time.Duration // simulated length of each
	slice        time.Duration
	liveHorizon  time.Duration // the run stepping during phase B
	openRate     float64       // phase B offered load, requests per second
	windows      int           // each phase is cut into this many windows
	setupSamples int
	handlerCalls int // in-process handler calls per route (traced)
	pinned       bool
}

var queryFull = querySize{
	runs:         4,
	horizon:      60 * time.Second,
	slice:        50 * time.Millisecond,
	liveHorizon:  3600 * time.Second,
	openRate:     2000,
	windows:      5,
	setupSamples: 3,
	handlerCalls: 200,
	pinned:       true,
}

// allocPer is the number of closed-loop requests alloc_mb charges for.
const allocPer = 10000

// route is one GET of the query mix. Paths with %s take a run id.
type route struct {
	name string // the per-layer metric is steelnetd.http.<name>.p50_us
	path string
	// stable marks responses that, for a finished run, are a pure
	// function of the run spec: they must be byte-identical every time.
	stable bool
}

var queryRoutes = []route{
	{"runs", "/runs", false},
	{"run", "/runs/%s", true},
	{"history_names", "/runs/%s/history", true},
	{"history_series", "/runs/%s/history?metric=slo%%2Fbreaches", true},
	{"history_prom", "/runs/%s/history?metric=slo%%2Fbreaches&format=prom", true},
	{"run_metrics", "/runs/%s/metrics", true},
	{"metrics", "/metrics", false},
	{"journal", "/journal", false},
	{"backend_log", "/backends/kafka/log", false},
	{"healthz", "/healthz", false},
}

// request is one entry of a connection's schedule.
type request struct {
	route int
	url   string
}

// schedule is a seeded shuffle of the ten routes, repeated, the run id
// rotating so every finished run is read.
func querySchedule(base string, ids []string, seed uint64, conn int) []request {
	rng := rand.New(rand.NewPCG(seed, uint64(conn)+1))
	var reqs []request
	for cycle := 0; cycle < 64; cycle++ {
		for _, ri := range rng.Perm(len(queryRoutes)) {
			r := queryRoutes[ri]
			path := r.path
			if r.stable {
				path = fmt.Sprintf(r.path, url.PathEscape(ids[(cycle+ri)%len(ids)]))
			}
			reqs = append(reqs, request{route: ri, url: base + path})
		}
	}
	return reqs
}

// bodyCheck keeps the first body seen for every stable URL and records
// the URLs whose later bodies differ.
type bodyCheck struct {
	mu       sync.Mutex
	first    map[string][]byte
	mismatch []string
}

func (c *bodyCheck) see(u string, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.first[u]
	if !ok {
		c.first[u] = bytes.Clone(body)
		return true
	}
	if !bytes.Equal(want, body) {
		c.mismatch = append(c.mismatch, u)
		return false
	}
	return true
}

// digestAll folds every stable URL's body in URL order.
func (c *bodyCheck) digestAll(base string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k[len(base):], digest(string(c.first[k])))
	}
	return digest(b.String())
}

// sample is one completed request.
type sample struct {
	route int
	dueNS int64   // when it was due (open loop) or sent (closed loop), ns since phase start
	latUS float64 // completion − due
	late  bool    // open loop: sent after it was due
	ok    bool
}

// queryConn is one keep-alive connection of the load generator.
type queryConn struct {
	client *http.Client
	reqs   []request
	next   int
	buf    bytes.Buffer
}

func newQueryConn(reqs []request) *queryConn {
	return &queryConn{reqs: reqs, client: &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

// do issues the connection's next request and checks the reply.
func (c *queryConn) do(check *bodyCheck) (route int, ok bool) {
	rq := c.reqs[c.next%len(c.reqs)]
	c.next++
	resp, err := c.client.Get(rq.url)
	if err != nil {
		return rq.route, false
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 {
		return rq.route, false
	}
	if queryRoutes[rq.route].stable && !check.see(rq.url, c.buf.Bytes()) {
		return rq.route, false
	}
	return rq.route, true
}

// closedLoop runs every connection back to back for d: a connection
// sends its next request only when the previous reply is in.
func closedLoop(conns []*queryConn, check *bodyCheck, d time.Duration) []sample {
	start := time.Now()
	out := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if t0 >= d {
					return
				}
				route, ok := c.do(check)
				out[i] = append(out[i], sample{route: route, dueNS: int64(t0),
					latUS: float64(time.Since(start)-t0) / 1e3, ok: ok})
			}
		}()
	}
	wg.Wait()
	return flatten(out)
}

// dueTime is when the k-th request of an open-loop schedule is due.
func dueTime(k int, rate float64) time.Duration {
	return time.Duration(float64(k) / rate * float64(time.Second))
}

// openLoop offers rate requests per second for d, request k going to
// connection k mod C at its due time whatever happened to the earlier
// ones. A connection that is still busy sends late; latency is always
// taken from the due time, so a stall charges every request it delayed.
func openLoop(conns []*queryConn, check *bodyCheck, rate float64, d time.Duration) []sample {
	start := time.Now()
	out := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; ; k += len(conns) {
				due := dueTime(k, rate)
				if due >= d {
					return
				}
				wait := due - time.Since(start)
				if wait > 0 {
					time.Sleep(wait)
				}
				late := lateBy(time.Since(start), due)
				route, ok := c.do(check)
				out[i] = append(out[i], sample{route: route, dueNS: int64(due),
					latUS: float64(time.Since(start)-due) / 1e3, late: late, ok: ok})
			}
		}()
	}
	wg.Wait()
	return flatten(out)
}

// lateSlack is how far past its due time a send may be before the
// generator counts as having run late: timer wake-up jitter stays
// below it, a connection stuck behind a slow reply does not.
const lateSlack = time.Millisecond

func lateBy(now, due time.Duration) bool { return now-due > lateSlack }

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// windowed splits samples into n equal windows of a phase of length d
// by due time and applies f to each window's samples.
func windowed(samples []sample, d time.Duration, n int, f func([]sample, time.Duration) float64) []float64 {
	w := d / time.Duration(n)
	parts := make([][]sample, n)
	for _, s := range samples {
		i := int(time.Duration(s.dueNS) / w)
		if i >= n {
			i = n - 1
		}
		parts[i] = append(parts[i], s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		out[i] = f(p, w)
	}
	return out
}

func latencies(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.latUS
	}
	return xs
}

// finishedRuns starts z.runs runs on g through start and waits until
// all have reached their horizon.
func finishedRuns(z querySize, p params, g *steelnetd.Gateway, start func(steelnetd.RunSpec) error) ([]string, error) {
	st := streamSize{horizon: z.horizon, slice: z.slice}
	ids := make([]string, z.runs)
	for i := range ids {
		spec := st.spec(p.seed, i)
		if err := start(spec); err != nil {
			return nil, err
		}
		ids[i] = spec.ID
	}
	for _, id := range ids {
		if err := g.Wait(id); err != nil {
			return nil, fmt.Errorf("run %s: %w", id, err)
		}
	}
	return ids, nil
}

// queryGateway is a listening gateway holding z.runs finished runs,
// started over HTTP.
func queryGateway(z querySize, p params) (*liveGateway, []string, error) {
	lg, err := listenGateway(0)
	if err != nil {
		return nil, nil, err
	}
	ids, err := finishedRuns(z, p, lg.g, func(spec steelnetd.RunSpec) error {
		_, err := lg.postRun(spec)
		return err
	})
	if err != nil {
		lg.close()
		return nil, nil, err
	}
	return lg, ids, nil
}

func runQuery(z querySize, p params) (*result, error) {
	res := newResult("gateway_query", p.trace)

	// Set-up, several times over: only the last gateway is kept.
	var lg *liveGateway
	var ids []string
	var setups, setupAlloc []float64
	for i := 0; i < z.setupSamples; i++ {
		if lg != nil {
			lg.close()
		}
		settle()
		a0 := totalAllocMB()
		t0 := time.Now()
		var err error
		if lg, ids, err = queryGateway(z, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupAlloc = append(setupAlloc, totalAllocMB()-a0)
	}
	defer func() { lg.close() }()
	res.fastest("setup_s", setups)

	conns := make([]*queryConn, p.conns)
	for i := range conns {
		conns[i] = newQueryConn(querySchedule(lg.base, ids, p.seed, i))
		defer conns[i].client.CloseIdleConnections()
	}
	check := &bodyCheck{first: map[string][]byte{}}
	phase := time.Duration(p.seconds / 2 * float64(time.Second))

	// Phase A: closed loop on the idle gateway.
	settle()
	a0 := totalAllocMB()
	closed := closedLoop(conns, check, phase)
	allocA := totalAllocMB() - a0
	rps := windowed(closed, phase, z.windows, func(w []sample, d time.Duration) float64 {
		return float64(len(w)) / d.Seconds()
	})

	// Phase B: open loop beside one live run.
	live := streamSize{horizon: z.liveHorizon, slice: z.slice}.spec(p.seed, z.runs)
	live.ID = "live"
	if _, err := lg.postRun(live); err != nil {
		return nil, err
	}
	open := openLoop(conns, check, z.openRate, phase)
	st, _ := lg.g.Status(live.ID)
	if err := lg.g.Stop(live.ID); err != nil {
		return nil, err
	}
	lg.g.Wait(live.ID) //nolint:errcheck // stopped on purpose
	if st.State != steelnetd.StateRunning {
		res.op(fmt.Sprintf("gateway_query: the live run was %s, not running, when phase B ended", st.State))
	}
	p50 := windowed(open, phase, z.windows, func(w []sample, _ time.Duration) float64 {
		return median(latencies(w))
	})

	for _, s := range append(closed, open...) {
		problem := ""
		if !s.ok {
			problem = "gateway_query: GET " + queryRoutes[s.route].name + " failed (status, transport or body mismatch)"
		}
		res.op(problem)
	}
	for _, u := range check.mismatch {
		res.problems = append(res.problems, "gateway_query: body of "+u+" changed between requests")
	}
	if pin := pins["gateway_query/bodies"]; z.pinned && p.seed == 1 {
		problem := ""
		if got := check.digestAll(lg.base); got != pin {
			problem = fmt.Sprintf("gateway_query: finished-run response bodies %s differ from the pinned seed-1 digest %s", got, pin)
		}
		res.op(problem)
	}

	res.median("response_ms", col(p50, func(us float64) float64 { return us / 1e3 }))
	// One set-up plus allocPer closed-loop requests, generator included:
	// a fixed amount of work, however many requests phase A completed.
	res.set("alloc_mb", median(setupAlloc)+allocA/float64(max(len(closed), 1))*allocPer, len(setupAlloc))
	res.median("query_rps", rps)
	res.median("query_p50_us", p50)

	if p.trace {
		traceQuery(res, z, p, lg, ids, closed, open)
	}
	return res, nil
}

// traceQuery derives the read path's per-layer metrics: per-route
// client medians, the same mix through the mux without a socket, and
// direct history queries.
func traceQuery(res *result, z querySize, p params, lg *liveGateway, ids []string, closed, open []sample) {
	byRoute := make([][]float64, len(queryRoutes))
	for _, s := range closed {
		byRoute[s.route] = append(byRoute[s.route], s.latUS)
	}
	for i, r := range queryRoutes {
		res.set("steelnetd.http."+r.name+".p50_us", median(byRoute[i]), len(byRoute[i]))
	}
	clientP50 := median(latencies(closed))
	openLat := latencies(open)
	late := 0
	for _, s := range open {
		if s.late {
			late++
		}
	}
	res.set("steelnetd.http.p99_us", supportedPercentile(openLat, 0.99), len(openLat))
	res.set("steelnetd.http.p999_us", supportedPercentile(openLat, 0.999), len(openLat))
	res.set("steelnetd.http.late_frac", float64(late)/float64(max(len(open), 1)), len(open))
	res.set("steelnetd.http.live_slowdown", median(openLat)/clientP50, len(open))

	// The same mix without a socket: a second gateway holding the same
	// finished runs, never listening, its mux called directly. (A second
	// mux over the listening gateway would register its metric families
	// twice.) The pass runs once bare and once under spans.
	g2 := steelnetd.NewGateway(steelnetd.GatewayConfig{})
	defer g2.Close()
	ids2, err := finishedRuns(z, p, g2, func(spec steelnetd.RunSpec) error {
		_, err := g2.Start(spec)
		return err
	})
	if err != nil {
		res.op("gateway_query: second gateway: " + err.Error())
		return
	}
	mux := steelnetd.NewServeMux(g2)
	reqs := querySchedule("", ids2, p.seed, 0)
	calls := z.handlerCalls * len(queryRoutes)
	pass := func(rec *recorder) (lat []float64, socketUS float64) {
		for i := 0; i < calls; i++ {
			rq := reqs[i%len(reqs)]
			req := httptest.NewRequest(http.MethodGet, rq.url, nil)
			w := httptest.NewRecorder()
			d := rec.do("steelnetd.mux."+queryRoutes[rq.route].name, func() { mux.ServeHTTP(w, req) })
			if w.Code/100 != 2 {
				res.op(fmt.Sprintf("gateway_query: handler %s answered %d", rq.url, w.Code))
			}
			lat = append(lat, float64(d.Nanoseconds())/1e3)
			socketUS += median(byRoute[rq.route])
		}
		return lat, socketUS
	}
	bare, _ := pass(nil)
	rec := newRecorder(res.workload)
	handlerLat, socketUS := pass(rec)
	handlerP50 := median(handlerLat)
	res.set("steelnetd.handler_p50_us", handlerP50, len(handlerLat))
	if clientP50 > 0 {
		res.set("steelnetd.http.socket_share", 1-handlerP50/clientP50, len(handlerLat))
	}
	res.set("bench.trace_overhead_frac", sum(handlerLat)/sum(bare)-1, calls)

	var queryUS []float64
	rec.rep = 1
	for _, id := range ids {
		hist, ok := lg.g.History(id)
		if !ok {
			res.op("gateway_query: no history for " + id)
			continue
		}
		for i := 0; i < z.handlerCalls; i++ {
			d := rec.do("tshist.Recorder.Query", func() {
				if _, _, ok := hist.Query("slo/breaches", 0, 0); !ok {
					res.op("gateway_query: slo/breaches has no history on " + id)
				}
			})
			queryUS = append(queryUS, float64(d.Nanoseconds())/1e3)
		}
	}
	res.set("tshist.query_us", median(queryUS), len(queryUS))

	res.spans = rec.spans
	// The budget sets the handler pass against what the same requests
	// cost a client over the socket (each at its route's median), so the
	// residual is the socket's share.
	res.untracedWall = socketUS / 1e6
}
