package mrp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/faults"
	"steelnet/internal/frame"
	"steelnet/internal/iodevice"
	"steelnet/internal/plc"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
)

// CheckpointKind tags this experiment's checkpoint files.
const CheckpointKind = "mrp"

// FoldState folds the manager's protocol state: ring state, test
// sequence tracking and the protocol counters.
func (m *Manager) FoldState(d *checkpoint.Digest) {
	d.Int(int(m.state))
	d.U64(uint64(m.seq))
	d.Int(m.misses)
	seqs := make([]uint32, 0, len(m.seen))
	for s := range m.seen {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	d.Int(len(seqs))
	for _, s := range seqs {
		d.U64(uint64(s))
		d.Bool(m.seen[s])
	}
	d.U64(m.TestsSent)
	d.U64(m.TestsReturned)
	d.U64(m.Transitions)
}

// Harness is the resumable form of the ring experiment: build, advance
// in steps, checkpoint at any instant.
type Harness struct {
	cfg    RingExperimentConfig
	engine *sim.Engine
	sws    []*simnet.Switch
	links  []*simnet.Link
	mgr    *Manager
	ctrl   *plc.Controller
	dev    *iodevice.Device
	in     *faults.Injector

	firstOpenAt, lastCloseAt sim.Time
}

// NewHarness builds the ring scenario without running it. A fault plan
// naming a target the scenario does not register — cfg.Faults may come
// from a checkpoint — is an error.
func NewHarness(cfg RingExperimentConfig) (*Harness, error) {
	if cfg.Switches < 3 {
		cfg.Switches = 4
	}
	e := sim.NewEngine(cfg.Seed)
	h := &Harness{cfg: cfg, engine: e}
	n := cfg.Switches
	h.in = faults.NewInjector(e)
	h.in.Tracer = cfg.Trace

	h.sws = make([]*simnet.Switch, n)
	for i := 0; i < n; i++ {
		h.sws[i] = simnet.NewSwitch(e, fmt.Sprintf("sw%d", i), 3, simnet.SwitchConfig{Latency: sim.Microsecond})
		h.in.RegisterSwitch(h.sws[i].Name(), h.sws[i])
	}
	for i := 0; i < n; i++ {
		l := simnet.Connect(e, fmt.Sprintf("ring%d", i),
			h.sws[i].Port(1), h.sws[(i+1)%n].Port(0), cfg.LinkBps, 500*sim.Nanosecond)
		h.in.RegisterLink(l.Name, l)
		h.links = append(h.links, l)
	}
	for i, sw := range h.sws {
		for j := 0; j < sw.NumPorts(); j++ {
			h.in.RegisterPort(fmt.Sprintf("sw%d.%d", i, j), sw.Port(j))
		}
	}

	h.mgr = Attach(e, h.sws[0], 0, 1, cfg.Ring)
	for i := 1; i < n; i++ {
		AttachClient(h.sws[i], 0, 1)
	}

	h.ctrl = plc.NewController(e, "vplc", frame.NewMAC(1), plc.ControllerConfig{})
	h.dev = iodevice.New(e, "io", frame.NewMAC(2), nil, nil)
	h.in.RegisterHost("vplc", h.ctrl)
	upPLC := simnet.Connect(e, "uplink-plc", h.ctrl.Host().Port(), h.sws[0].Port(2), cfg.LinkBps, 0)
	upDev := simnet.Connect(e, "uplink-dev", h.dev.Host().Port(), h.sws[n/2].Port(2), cfg.LinkBps, 0)
	h.in.RegisterLink("uplink-plc", upPLC)
	h.in.RegisterLink("uplink-dev", upDev)
	h.links = append(h.links, upPLC, upDev)
	h.in.RegisterPort("vplc", h.ctrl.Host().Port())
	h.in.RegisterPort("io", h.dev.Host().Port())

	if cfg.Trace != nil {
		cfg.Trace.Bind(e)
		for _, sw := range h.sws {
			sw.SetTracer(cfg.Trace)
		}
		h.ctrl.Host().SetTracer(cfg.Trace)
		h.dev.Host().SetTracer(cfg.Trace)
	}
	if cfg.Metrics != nil {
		for _, sw := range h.sws {
			simnet.RegisterSwitchMetrics(cfg.Metrics, sw)
		}
		simnet.RegisterHostMetrics(cfg.Metrics, h.ctrl.Host())
		simnet.RegisterHostMetrics(cfg.Metrics, h.dev.Host())
		for _, l := range h.links {
			simnet.RegisterLinkMetrics(cfg.Metrics, l)
		}
		telemetry.RegisterEngineMetrics(cfg.Metrics, e)
	}

	h.ctrl.Connect(plc.ConnectSpec{
		Device: h.dev.Host().MAC(),
		Req: profinet.ConnectRequest{
			ARID:           1,
			CycleUS:        uint32(cfg.Cycle / time.Microsecond),
			WatchdogFactor: uint16(cfg.WatchdogFactor),
			InputLen:       20,
			OutputLen:      20,
		},
	})

	h.mgr.OnStateChange = func(s RingState) {
		if s == RingOpen && h.firstOpenAt == 0 {
			h.firstOpenAt = e.Now()
		}
		if s == RingClosed {
			h.lastCloseAt = e.Now()
		}
	}

	plan := faults.Plan{Name: "ring-cut", Events: []faults.Event{
		{At: 500 * time.Millisecond, Kind: faults.KindLinkFlap, Target: "ring2"},
	}}
	if cfg.Faults != nil {
		plan = *cfg.Faults
	}
	if err := h.in.Apply(plan); err != nil {
		return nil, fmt.Errorf("mrp: bad fault plan: %w", err)
	}
	return h, nil
}

// Engine returns the harness's engine.
func (h *Harness) Engine() *sim.Engine { return h.engine }

// Horizon returns the configured end of the run.
func (h *Harness) Horizon() sim.Time { return sim.Time(h.cfg.Horizon) }

// AdvanceTo runs the scenario up to instant t.
func (h *Harness) AdvanceTo(t sim.Time) { h.engine.RunUntil(t) }

// Result collects the experiment's measurements at the current instant.
// It is non-destructive: the harness can keep advancing afterwards.
func (h *Harness) Result() RingExperimentResult {
	return RingExperimentResult{
		FinalRingState: h.mgr.State(),
		Transitions:    h.mgr.Transitions,
		TestsSent:      h.mgr.TestsSent,
		TestsReturned:  h.mgr.TestsReturned,
		FirstOpenAt:    h.firstOpenAt,
		LastCloseAt:    h.lastCloseAt,
		FailsafeEvents: h.dev.FailsafeEvents,
		DeviceState:    h.dev.State(),
		InjectedFaults: h.in.Injected,
		FaultTrace:     h.in.TraceString(),
	}
}

// FoldState folds the harness's live state: engine, every switch, the
// ring manager, the controller, the device, the injector's record,
// links and the observation timestamps.
func (h *Harness) FoldState(d *checkpoint.Digest) {
	h.engine.FoldState(d)
	for _, sw := range h.sws {
		sw.FoldState(d)
	}
	h.mgr.FoldState(d)
	h.ctrl.FoldState(d)
	h.dev.FoldState(d)
	h.in.FoldState(d)
	for _, l := range h.links {
		l.FoldState(d)
	}
	d.I64(int64(h.firstOpenAt))
	d.I64(int64(h.lastCloseAt))
}

// Digest returns the state digest at the current instant.
func (h *Harness) Digest() uint64 {
	d := checkpoint.NewDigest()
	h.FoldState(d)
	return d.Sum()
}

// Save writes a replay-anchored checkpoint of the run to w.
func (h *Harness) Save(w io.Writer) error {
	config := checkpoint.Encode(WalkRingConfig, &h.cfg)
	return checkpoint.WriteHarness(w, CheckpointKind, config, int64(h.engine.Now()), h.Digest())
}

// Restore reads a checkpoint, rebuilds the scenario with the given
// telemetry sinks and replays to the checkpointed instant, verifying
// the state digest.
func Restore(r io.Reader, sinks sweep.Sinks) (*Harness, error) {
	return checkpoint.Replay[sim.Time](r, CheckpointKind, WalkRingConfig,
		func(cfg RingExperimentConfig) (*Harness, error) {
			cfg.Sinks = sinks
			return NewHarness(cfg)
		})
}

// WalkRingConfig is the field list of a ring checkpoint's "config"
// section (the sinks are supplied fresh at Restore).
func WalkRingConfig(c *checkpoint.Codec, cfg *RingExperimentConfig) {
	checkpoint.Int(c, &cfg.Seed)
	checkpoint.Int(c, &cfg.Switches)
	checkpoint.Int(c, &cfg.Ring.TestInterval)
	checkpoint.Int(c, &cfg.Ring.TestTolerance)
	checkpoint.Int(c, &cfg.Cycle)
	checkpoint.Int(c, &cfg.WatchdogFactor)
	checkpoint.Int(c, &cfg.Horizon)
	c.F64(&cfg.LinkBps)
	faults.WalkPlan(c, &cfg.Faults)
}
