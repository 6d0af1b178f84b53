package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/steelnetd"
)

// streamRules is the three-rule set of the gateway's own tests: one
// rule of every condition kind, routed to both fake backends.
const streamRules = `loss:*>0.1->kafka:alerts;breach:*>0->mqtt:plant/slo;tag:steelnet_host_rx_total{node="io"}>100->kafka:io`

// streamSLO is deliberately unattainable, so breaches — and with them
// breach frames and rule firings — occur on every run.
const streamSLO = "latency:*<1µs"

// streamSize sizes gateway_stream.
type streamSize struct {
	sims          int           // concurrent hosted runs
	horizon       time.Duration // simulated length of each
	slice         time.Duration // publish interval
	setupSamples  int           // extra stand-alone repeats of the set-up region
	connectCycles int           // sequential GET /events connect→hello→close
	tracedCycles  int           // the same in a traced rep: enough for a p99 (ten samples beyond it)
	minReps       int
	pinned        bool
}

var streamFull = streamSize{
	sims:          4,
	horizon:       120 * time.Second,
	slice:         50 * time.Millisecond,
	setupSamples:  7,
	connectCycles: 200,
	tracedCycles:  1000,
	minReps:       4,
	pinned:        true,
}

func (z streamSize) spec(seed uint64, i int) steelnetd.RunSpec {
	return steelnetd.RunSpec{
		ID: fmt.Sprintf("sim-%d", i),
		Run: core.HeadlessConfig{
			Seed:    seed + uint64(i),
			Horizon: z.horizon,
			Slice:   z.slice,
			SLO:     streamSLO,
		},
		Rules: streamRules,
	}
}

// hubDepth is a subscriber queue deep enough that no frame can drop:
// every slice of every run publishes a tag batch and, at worst, every
// rule fires (the sizing steelnetd.RunLoad uses).
func (z streamSize) hubDepth() int {
	rules, err := steelnetd.ParseRuleSet(streamRules)
	if err != nil {
		panic(err) // a constant
	}
	slices := int(z.horizon/z.slice) + 2
	return z.sims * slices * (1 + len(rules.Rules))
}

// liveGateway is an embedded gateway listening on a loopback port,
// with the fake backends whose logs the output checks read.
type liveGateway struct {
	g      *steelnetd.Gateway
	srv    *steelnetd.Server
	kafka  *steelnetd.FakeBackend
	mqtt   *steelnetd.FakeBackend
	base   string
	client *http.Client
}

func listenGateway(hubDepth int) (*liveGateway, error) {
	lg := &liveGateway{kafka: steelnetd.NewFakeKafka(), mqtt: steelnetd.NewFakeMQTT()}
	lg.g = steelnetd.NewGateway(steelnetd.GatewayConfig{
		Backends: steelnetd.Backends{"kafka": lg.kafka, "mqtt": lg.mqtt},
	})
	if hubDepth > 0 {
		lg.g.Hub().SetLimits(hubDepth, 0)
	}
	srv, err := steelnetd.Listen("127.0.0.1:0", lg.g)
	if err != nil {
		return nil, err
	}
	lg.srv = srv
	lg.base = "http://" + srv.Addr()
	lg.client = &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxIdleConnsPerHost: 16,
	}}
	return lg, nil
}

func (lg *liveGateway) close() {
	lg.srv.Close() //nolint:errcheck // shutting down
	<-lg.srv.Done()
	lg.client.CloseIdleConnections()
}

// postRun starts one run over HTTP and returns how long the gateway
// took to answer 201.
func (lg *liveGateway) postRun(spec steelnetd.RunSpec) (time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := lg.client.Post(lg.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
	d := time.Since(t0)
	if resp.StatusCode != http.StatusCreated {
		return d, fmt.Errorf("POST /runs %s: status %d", spec.ID, resp.StatusCode)
	}
	return d, nil
}

// outputs renders the gateway's deterministic artefacts: both backend
// logs and the lifecycle journal.
func (lg *liveGateway) outputs() (string, error) {
	var b bytes.Buffer
	for _, part := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"kafka", lg.kafka.WriteLog}, {"mqtt", lg.mqtt.WriteLog}, {"journal", lg.g.Journal().WriteLog},
	} {
		fmt.Fprintf(&b, "== %s\n", part.name)
		if err := part.write(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// streamRep is what one rep measured.
type streamRep struct {
	setup      time.Duration  // listen + connect cycles + subscribers to hello
	firstByte  []float64      // µs, one per connect cycle
	runStart   []float64      // ms, one per POST /runs
	streamWall time.Duration  // first POST → last frame parsed
	drain      time.Duration  // last run done → last frame parsed
	published  int64          // hub frames
	delivered  int64          // frames parsed across subscribers
	sseBytes   int64          // bytes of those frames
	firings    uint64         // rule firings across runs
	allocMB    float64        // TotalAlloc over the rep
	output     string         // sha of logs + journal
	lag        []float64      // µs socket receipt − in-process tap receipt (traced)
	hub        *steelnetd.Hub // counters, read by the traced run
	journal    uint64         // journal records
	problems   []string       // failed deliveries or checks
	slices     uint64         // Σ final seq across runs
	simWall    time.Duration  // first POST → last run done
}

// attached is a rep's set-up region done: a fresh gateway listening, the
// connect cycles run, C subscribers past their hello frames.
type attached struct {
	lg        *liveGateway
	subs      []*subscriber
	epoch     time.Time // subscriber receipt times count from here
	firstByte []float64 // µs, one per connect cycle
	setup     time.Duration
}

func attachStream(z streamSize, p params, cycles int) (*attached, error) {
	t0 := time.Now()
	lg, err := listenGateway(z.hubDepth())
	if err != nil {
		return nil, err
	}
	a := &attached{lg: lg}
	for i := 0; i < cycles; i++ {
		c, err := openSSE(lg.client, lg.base+"/events")
		if err != nil {
			a.close()
			return nil, err
		}
		a.firstByte = append(a.firstByte, float64(c.firstByte.Nanoseconds())/1e3)
		c.close()
	}
	a.epoch = time.Now()
	for i := 0; i < p.conns; i++ {
		c, err := openSSE(lg.client, lg.base+"/events")
		if err != nil {
			a.close()
			return nil, err
		}
		a.subs = append(a.subs, startSubscriber(c, a.epoch))
	}
	a.setup = time.Since(t0)
	return a, nil
}

// close stops the subscribers, then the gateway. Safe to call twice.
func (a *attached) close() {
	for _, s := range a.subs {
		s.stop()
	}
	a.lg.close()
}

// runStreamRep runs one fresh gateway through connect cycles, C socket
// subscribers and z.sims hosted runs, and returns when every subscriber
// has parsed every published frame. With tap set, an in-process hub
// subscriber timestamps the same frames for the lag metrics.
func runStreamRep(z streamSize, p params, sims int, tap bool) (streamRep, error) {
	var r streamRep
	settle()
	a0 := totalAllocMB()
	cycles := z.connectCycles
	if tap {
		cycles = z.tracedCycles
	}
	att, err := attachStream(z, p, cycles)
	if err != nil {
		return r, err
	}
	defer att.close()
	lg, subs, epoch := att.lg, att.subs, att.epoch
	r.hub = lg.g.Hub()
	r.firstByte = att.firstByte
	r.setup = att.setup

	var tapTimes []int64
	stopTap := func() {}
	if tap {
		ch, cancel := lg.g.Hub().Subscribe("")
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-ch:
					tapTimes = append(tapTimes, int64(time.Since(epoch)))
				case <-stop:
					return
				}
			}
		}()
		var once sync.Once
		stopTap = func() {
			once.Do(func() {
				close(stop)
				<-done
				cancel()
			})
		}
		defer stopTap()
	}

	start := time.Now()
	ids := make([]string, sims)
	for i := range ids {
		spec := z.spec(p.seed, i)
		d, err := lg.postRun(spec)
		if err != nil {
			return r, err
		}
		r.runStart = append(r.runStart, d.Seconds()*1e3)
		ids[i] = spec.ID
	}
	for _, id := range ids {
		if err := lg.g.Wait(id); err != nil {
			return r, fmt.Errorf("run %s: %w", id, err)
		}
		st, _ := lg.g.Status(id)
		r.firings += st.Firings
		r.slices += st.Seq
		if st.State != steelnetd.StateDone {
			r.problems = append(r.problems, fmt.Sprintf("run %s ended %s", id, st.State))
		}
	}
	simsDone := time.Now()
	r.simWall = simsDone.Sub(start)
	r.published = int64(lg.g.Hub().Published())

	var last int64
	for i, s := range subs {
		if err := s.await(r.published, 30*time.Second); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("subscriber %d: %v", i, err))
		}
		r.delivered += min(s.frames.Load(), r.published)
		r.sseBytes += s.bytes.Load()
		last = max(last, s.lastNS.Load())
	}
	end := epoch.Add(time.Duration(last))
	r.streamWall = end.Sub(start)
	r.drain = max(end.Sub(simsDone), 0)
	r.allocMB = totalAllocMB() - a0
	r.journal = lg.g.Journal().Total()
	if d, e := lg.g.Hub().Dropped(), lg.g.Hub().Evicted(); d != 0 || e != 0 {
		r.problems = append(r.problems, fmt.Sprintf("hub dropped %d frames and evicted %d subscribers", d, e))
	}
	out, err := lg.outputs()
	if err != nil {
		return r, err
	}
	r.output = digest(out)

	// Stop the writers before touching the receipt times.
	stopTap()
	for _, s := range subs {
		s.stop()
		for k := 0; k < len(s.recv) && k < len(tapTimes); k++ {
			r.lag = append(r.lag, float64(s.recv[k]-tapTimes[k])/1e3)
		}
	}
	return r, nil
}

// checkStream counts every expected frame delivery as one operation
// and fails the missing ones; a differing output fails one more.
func checkStream(res *result, z streamSize, p params, rep int, r streamRep, first string) {
	expected := r.published * int64(p.conns)
	res.attempted += int(expected)
	if missing := expected - r.delivered; missing > 0 {
		res.failed += int(missing)
		res.problems = append(res.problems, fmt.Sprintf("gateway_stream rep %d: %d of %d frame deliveries missing", rep, missing, expected))
	}
	for _, problem := range r.problems {
		res.op(fmt.Sprintf("gateway_stream rep %d: %s", rep, problem))
	}
	problem := ""
	if r.output != first {
		problem = fmt.Sprintf("gateway_stream rep %d: backend logs + journal %s differ from rep 0 %s", rep, r.output[:12], first[:12])
	} else if pin := pins["gateway_stream/output"]; z.pinned && p.seed == 1 && r.output != pin {
		problem = fmt.Sprintf("gateway_stream rep %d: backend logs + journal %s differ from the pinned seed-1 digest %s", rep, r.output, pin)
	}
	res.op(problem)
}

func runStream(z streamSize, p params) (*result, error) {
	res := newResult("gateway_stream", p.trace)

	// The set-up region is a tenth of a second, so it is also sampled
	// on its own, beside the one sample every rep gives.
	var setups []float64
	for i := 0; i < z.setupSamples; i++ {
		att, err := attachStream(z, p, z.connectCycles)
		if err != nil {
			return nil, err
		}
		setups = append(setups, att.setup.Seconds())
		att.close()
	}
	var reps []streamRep
	for rep := 0; p.more(rep, z.minReps); rep++ {
		r, err := runStreamRep(z, p, z.sims, p.trace)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		checkStream(res, z, p, rep, r, reps[0].output)
	}
	// Every rep contributes the median of its own connect cycles; the
	// run reports the median of those.
	firstByte := col(reps, func(r streamRep) float64 { return median(r.firstByte) })
	rate := col(reps, func(r streamRep) float64 { return float64(r.delivered) / r.streamWall.Seconds() })
	res.fastest("setup_s", append(setups, col(reps, func(r streamRep) float64 { return r.setup.Seconds() })...))
	res.fastest("response_ms", col(reps, func(r streamRep) float64 { return r.streamWall.Seconds() * 1e3 }))
	res.median("alloc_mb", col(reps, func(r streamRep) float64 { return r.allocMB }))
	// The fastest rep again: the highest confirmed-delivery rate.
	res.set("stream_msgs_per_s", maxOf(rate), len(rate))
	res.median("sse_first_byte_us", firstByte)

	if p.trace {
		if err := traceStream(res, z, p, reps[len(reps)-1]); err != nil {
			return nil, err
		}
	}
	return res, nil
}
