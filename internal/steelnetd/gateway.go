package steelnetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"steelnet/internal/core"
	"steelnet/internal/enc"
	"steelnet/internal/obs"
	"steelnet/internal/telemetry"
	"steelnet/internal/tshist"
)

// RunSpec declares one hosted run: the core run spec plus the rule set
// evaluated over its sample stream. It is the gateway's POST /runs wire
// format.
type RunSpec struct {
	// ID names the run; empty picks "run-<n>". IDs key the northbound
	// partition logs, so two gateways hosting the same specs under the
	// same IDs produce identical logs.
	ID string `json:"id,omitempty"`
	// Run is the simulation spec (see core.HeadlessConfig).
	Run core.HeadlessConfig `json:"run"`
	// Rules is a rule-set spec (see ParseRuleSet); empty disables the
	// engine for this run.
	Rules string `json:"rules,omitempty"`
}

// DecodeRunSpec reads one run spec from r, the one decoder for every
// spec that arrives from outside (POST /runs, steelnetd -run). A field
// the spec does not have is an error, so a misspelt key cannot quietly
// select a default, and so is anything but white space after the spec.
func DecodeRunSpec(r io.Reader) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return RunSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second value")
		}
		return RunSpec{}, fmt.Errorf("data after the run spec: %w", err)
	}
	return spec, nil
}

// RunState is a hosted run's lifecycle phase.
type RunState string

// Run states. Runs move running → done | stopped | failed.
const (
	StateRunning RunState = "running"
	StateDone    RunState = "done"    // reached the horizon
	StateStopped RunState = "stopped" // cancelled via Stop
	StateFailed  RunState = "failed"
)

// RunStatus is one run's listing entry.
type RunStatus struct {
	ID      string   `json:"id"`
	State   RunState `json:"state"`
	Seq     uint64   `json:"seq"`
	SimNS   int64    `json:"sim_ns"`
	Rules   string   `json:"rules,omitempty"`
	Firings uint64   `json:"firings"`
	Error   string   `json:"error,omitempty"`
}

// run is one hosted simulation and its gateway-side state.
type run struct {
	id     string
	spec   RunSpec
	rules  RuleSet
	broker *obs.Broker
	drv    *core.Headless
	hist   *tshist.Recorder

	cancel chan struct{}
	stop   sync.Once
	done   chan struct{}

	mu      sync.Mutex
	state   RunState
	seq     uint64
	simNS   int64
	firings uint64
	err     error
}

func (r *run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{ID: r.id, State: r.state, Seq: r.seq, SimNS: r.simNS, Rules: r.rules.Name, Firings: r.firings}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	return st
}

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Backends routes rule actions; nil installs DefaultBackends with
	// the log backend discarded.
	Backends Backends
	// MaxConcurrent bounds how many runs step at once (0 = unlimited).
	// Queued runs wait in start order. Because northbound logs are
	// keyed per run, the dumps are identical at any setting — the
	// golden tests pin that.
	MaxConcurrent int
	// Trace records the gateway plane's own trace events (run windows,
	// rule firings, HTTP request spans) for WriteTrace's stitched
	// Chrome/Perfetto export. Per-run simulation lanes additionally
	// require Trace in the run spec.
	Trace bool
}

// Gateway hosts many concurrent simulation runs behind one surface:
// each run steps a core.Headless driver on its own goroutine,
// publishes its telemetry through a per-run obs.Broker, fans changed
// tags and rule firings out through the shared Hub, and routes rule
// firings to the northbound backends.
type Gateway struct {
	hub      *Hub
	backends Backends
	sem      chan struct{}
	journal  *Journal
	trace    *TraceLog // nil unless GatewayConfig.Trace

	mu     sync.Mutex
	runs   map[string]*run
	order  []string
	nextID int

	// started and active are allocated apart from the Gateway, like the
	// transition counters below: the hub registry's read funcs are
	// reachable from every holder of the Hub, and must keep these words
	// alive — not a closed gateway with its runs and their histories.
	started *atomic.Uint64
	active  *atomic.Int64
	// transitions counts every run state entered, per state — the
	// steelnetd_run_transitions_total{state=…} family.
	transitions map[RunState]*atomic.Uint64
	// latestSimNS is the newest simulated instant any run has published
	// — the anchor WriteTrace stitches wall-clock HTTP spans to.
	latestSimNS atomic.Int64
}

// NewGateway builds an idle gateway.
func NewGateway(cfg GatewayConfig) *Gateway {
	g := &Gateway{
		hub:         NewHub(),
		backends:    cfg.Backends,
		runs:        map[string]*run{},
		journal:     NewJournal(),
		started:     &atomic.Uint64{},
		active:      &atomic.Int64{},
		transitions: map[RunState]*atomic.Uint64{},
	}
	if g.backends == nil {
		g.backends = DefaultBackends(io.Discard)
	}
	if cfg.MaxConcurrent > 0 {
		g.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.Trace {
		g.trace = &TraceLog{}
	}
	reg, active := g.hub.Registry(), g.active
	reg.Counter("steelnetd_runs_started_total", nil,
		"Runs accepted by the gateway.", g.started.Load)
	reg.Gauge("steelnetd_runs_active", nil,
		"Runs currently stepping.", func() float64 { return float64(active.Load()) })
	reg.Counter("steelnetd_journal_records_total", nil,
		"Lifecycle journal records appended.", g.journal.Total)
	for _, st := range []RunState{StateRunning, StateDone, StateStopped, StateFailed} {
		c := &atomic.Uint64{}
		g.transitions[st] = c
		reg.Counter("steelnetd_run_transitions_total", telemetry.L("state", string(st)),
			"Run state transitions, by state entered.", c.Load)
	}
	// Backends that keep a count (the fakes) expose it per backend.
	names := make([]string, 0, len(g.backends))
	for name := range g.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if t, ok := g.backends[name].(interface{ Total() uint64 }); ok {
			reg.Counter("steelnetd_backend_published_total", telemetry.L("backend", name),
				"Messages published northbound, by backend.", t.Total)
		}
	}
	return g
}

// Journal returns the gateway's run-lifecycle audit journal.
func (g *Gateway) Journal() *Journal { return g.journal }

// History returns a run's time-series history recorder.
func (g *Gateway) History(id string) (*tshist.Recorder, bool) {
	r, ok := g.get(id)
	if !ok {
		return nil, false
	}
	return r.hist, true
}

// Hub returns the fleet-wide fan-out hub.
func (g *Gateway) Hub() *Hub { return g.hub }

// Backend returns a named northbound backend.
func (g *Gateway) Backend(name string) (Publisher, bool) {
	p, ok := g.backends[name]
	return p, ok
}

// Start validates spec, registers the run and begins stepping it on its
// own goroutine. It returns the run ID immediately.
func (g *Gateway) Start(spec RunSpec) (string, error) {
	rules, err := ParseRuleSet(spec.Rules)
	if err != nil {
		return "", err
	}
	if err := g.backends.Resolve(rules); err != nil {
		return "", err
	}
	drv, err := core.NewHeadless(spec.Run)
	if err != nil {
		return "", err
	}
	spec.Run = drv.Config()

	g.mu.Lock()
	if spec.ID == "" {
		g.nextID++
		spec.ID = "run-" + strconv.Itoa(g.nextID)
	}
	if _, dup := g.runs[spec.ID]; dup {
		g.mu.Unlock()
		return "", fmt.Errorf("steelnetd: run %q already exists", spec.ID)
	}
	r := &run{
		id: spec.ID, spec: spec, rules: rules, drv: drv,
		broker: obs.NewBroker(),
		hist:   tshist.NewRecorder(0, 0, 0),
		cancel: make(chan struct{}), done: make(chan struct{}),
		state: StateRunning,
	}
	g.runs[spec.ID] = r
	g.order = append(g.order, spec.ID)
	g.mu.Unlock()
	g.started.Add(1)
	g.journal.Record(r.id, JournalCreated, drv.Now())
	go g.drive(r)
	return spec.ID, nil
}

// drive is the run goroutine: acquire a concurrency slot, step slice by
// slice, publish, evaluate rules, until the horizon or Stop.
// A panic anywhere below it — the simulation, a rule, a backend — fails
// this run and no other: the deferred calls still release the slot and
// unblock Wait.
func (g *Gateway) drive(r *run) {
	defer close(r.done)
	defer func() {
		if p := recover(); p != nil {
			g.finish(r, StateFailed, fmt.Errorf("steelnetd: run %q panicked: %v", r.id, p))
		}
	}()
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
		case <-r.cancel:
			g.finish(r, StateStopped, nil)
			return
		}
	}
	g.active.Add(1)
	defer g.active.Add(-1)
	g.journal.Record(r.id, JournalStarted, r.drv.Now())
	g.transitions[StateRunning].Add(1)

	engine := NewEngine(r.rules)
	prev := map[string]float64{}

	var payload, frame []byte
	var batch []TagChange
	prevSim := r.drv.Now()
	for !r.drv.Done() {
		select {
		case <-r.cancel:
			g.finish(r, StateStopped, nil)
			return
		default:
		}
		r.drv.Step()
		s := r.drv.Sample()
		r.mu.Lock()
		r.seq, r.simNS = s.Seq, s.SimNS
		r.mu.Unlock()

		if err := r.broker.Publish(r.drv.Registry(), nil, s.SimNS); err != nil {
			g.finish(r, StateFailed, err)
			return
		}
		r.broker.PublishBreaches(s.Breaches)

		if s.SimNS > g.latestSimNS.Load() {
			g.latestSimNS.Store(s.SimNS) // racy max across runs is fine
		}
		if g.trace != nil {
			g.trace.Add(telemetry.Event{T: prevSim, Kind: telemetry.KindRunWindow,
				Node: "run/" + r.id, Frame: s.Seq, Aux: s.SimNS - prevSim})
		}
		prevSim = s.SimNS

		// One pass over the sample. History takes every tag, every slice
		// — the recorder's bounded rings make this O(1) memory per metric,
		// and its determinism makes /history a pure function of the run
		// spec. The hub takes only the tags whose value moved since the
		// last slice (change-detection filtering).
		batch = batch[:0]
		for _, t := range s.Tags {
			r.hist.Append(t.Name, s.SimNS, t.Value)
			if v, seen := prev[t.Name]; !seen || v != t.Value {
				prev[t.Name] = t.Value
				batch = append(batch, TagChange{Name: t.Name, Value: t.Value})
			}
		}
		if len(batch) > 0 {
			payload = appendTagsPayload(payload[:0], r.id, s.Seq, s.SimNS, batch)
			frame = sseFrame("tags", payload)
			g.hub.Publish(Frame{Run: r.id, Data: frame})
		}

		for _, f := range engine.Eval(&s) {
			fp := appendFiringPayload(nil, r.id, f)
			if p, ok := g.backends[f.Backend]; ok {
				if err := p.Publish(f.Topic, r.id, fp); err != nil {
					g.finish(r, StateFailed, err)
					return
				}
			}
			g.hub.Publish(Frame{Run: r.id, Data: sseFrame("firing", fp)})
			g.journal.RecordDetail(r.id, JournalFiring, f.SimNS, f.Rule)
			if g.trace != nil {
				g.trace.Add(telemetry.Event{T: f.SimNS, Kind: telemetry.KindRuleFiring,
					Node: "run/" + r.id, Detail: f.Rule, Aux: int64(f.Seq)})
			}
			r.mu.Lock()
			r.firings++
			r.mu.Unlock()
		}
	}
	g.finish(r, StateDone, nil)
}

// finish moves a run into a terminal state: the status struct, the
// transition counter and the journal all see the same transition.
func (g *Gateway) finish(r *run, s RunState, err error) {
	r.mu.Lock()
	r.state, r.err = s, err
	r.mu.Unlock()
	g.transitions[s].Add(1)
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	g.journal.RecordDetail(r.id, string(s), r.drv.Now(), detail)
}

// appendFiringPayload renders one firing as JSON, keyed by run:
//
//	{"run":"r1","rule":"loss:*>0.01->kafka:alerts","seq":3,"sim_ns":…,"value":0.02}
func appendFiringPayload(b []byte, run string, f Firing) []byte {
	b = append(b, `{"run":`...)
	b = enc.AppendString(b, run)
	b = append(b, `,"rule":`...)
	b = enc.AppendString(b, f.Rule)
	b = append(b, `,"seq":`...)
	b = enc.AppendUint(b, f.Seq)
	b = append(b, `,"sim_ns":`...)
	b = enc.AppendInt(b, f.SimNS)
	b = append(b, `,"value":`...)
	b = enc.AppendFloat(b, f.Value)
	b = append(b, '}')
	return b
}

// Stop cancels a run. Idempotent; stopping a finished run is a no-op.
func (g *Gateway) Stop(id string) error {
	r, ok := g.get(id)
	if !ok {
		return fmt.Errorf("steelnetd: no run %q", id)
	}
	r.stop.Do(func() { close(r.cancel) })
	return nil
}

// Wait blocks until the run's goroutine has exited (done, stopped or
// failed) and returns its terminal error, if any.
func (g *Gateway) Wait(id string) error {
	r, ok := g.get(id)
	if !ok {
		return fmt.Errorf("steelnetd: no run %q", id)
	}
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Remove forgets a finished run (its broker and status). The northbound
// logs keep its records.
func (g *Gateway) Remove(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return fmt.Errorf("steelnetd: no run %q", id)
	}
	select {
	case <-r.done:
	default:
		return fmt.Errorf("steelnetd: run %q is still stepping; Stop it first", id)
	}
	delete(g.runs, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return nil
}

// Status returns one run's listing entry.
func (g *Gateway) Status(id string) (RunStatus, bool) {
	r, ok := g.get(id)
	if !ok {
		return RunStatus{}, false
	}
	return r.status(), true
}

// Broker returns a run's obs.Broker for mounting its HTTP endpoints.
func (g *Gateway) Broker(id string) (*obs.Broker, bool) {
	r, ok := g.get(id)
	if !ok {
		return nil, false
	}
	return r.broker, true
}

// List returns every hosted run's status in start order.
func (g *Gateway) List() []RunStatus {
	g.mu.Lock()
	rs := make([]*run, 0, len(g.runs))
	for _, id := range g.order {
		rs = append(rs, g.runs[id])
	}
	g.mu.Unlock()
	sts := make([]RunStatus, len(rs))
	for i, r := range rs {
		sts[i] = r.status()
	}
	return sts
}

// BackendNames lists the installed northbound backends, sorted.
func (g *Gateway) BackendNames() []string {
	names := make([]string, 0, len(g.backends))
	for n := range g.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close stops every run and waits for their goroutines.
func (g *Gateway) Close() {
	g.mu.Lock()
	rs := make([]*run, 0, len(g.runs))
	for _, r := range g.runs {
		rs = append(rs, r)
	}
	g.mu.Unlock()
	for _, r := range rs {
		r.stop.Do(func() { close(r.cancel) })
	}
	for _, r := range rs {
		<-r.done
	}
}

func (g *Gateway) get(id string) (*run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}
