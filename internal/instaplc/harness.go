package instaplc

import (
	"fmt"
	"io"
	"math"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/dataplane"
	"steelnet/internal/faults"
	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/iodevice"
	"steelnet/internal/plc"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
)

// CheckpointKind tags this experiment's checkpoint files.
const CheckpointKind = "instaplc"

// Harness is the resumable form of the Fig. 5 experiment: the scenario
// is built eagerly, advanced in steps, and can be checkpointed at any
// instant. Checkpoints are replay-anchored (see internal/checkpoint):
// Save records the configuration, the current instant and a state
// digest; Restore rebuilds the scenario and replays to that instant,
// verifying the digest.
type Harness struct {
	cfg    ExperimentConfig
	engine *sim.Engine
	pipe   *dataplane.Pipeline
	app    *App
	vplc1  *plc.Controller
	vplc2  *plc.Controller
	dev    *iodevice.Device
	links  []*simnet.Link
	in     *faults.Injector
	coll   *intnet.Collector
	// pool is the cell's one frame free list, shared by the vPLCs, the
	// pipeline (and through it the app) and the device: a station Gets a
	// frame to transmit, the handler that consumes it Puts it back, the
	// pipeline attaches and strips INT stacks through it, and every
	// port's OnDrop returns what the network destroys.
	pool frame.Pool

	switchoverAt               sim.Time
	fromVPLC1, fromVPLC2, toIO []int
	prevV1, prevV2, prevIO     uint64
}

// NewHarness is BuildHarness for a configuration the program wrote
// itself: a fault plan that does not fit the scenario is a bug, and
// panics.
func NewHarness(cfg ExperimentConfig) *Harness {
	h, err := BuildHarness(cfg)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// BuildHarness builds the Fig. 5 scenario without running it. The
// returned harness is at time zero with everything scheduled. cfg may
// come from a command line, a run spec or a checkpoint: an IO cycle or
// watchdog factor the connect request cannot carry, or a fault plan
// naming a target the scenario does not register, is an error.
func BuildHarness(cfg ExperimentConfig) (*Harness, error) {
	if err := checkConnect(cfg); err != nil {
		return nil, err
	}
	e := sim.NewEngine(cfg.Seed)
	h := &Harness{cfg: cfg, engine: e}

	h.pipe = dataplane.New(e, "instaplc-switch", 3, dataplane.DefaultConfig)
	if cfg.INT && !cfg.DisableInstaPLC {
		h.coll = cfg.Collector
		if h.coll == nil {
			h.coll = intnet.NewCollector()
		}
	}
	if cfg.DisableInstaPLC {
		installPlainL2(h.pipe)
	} else {
		h.app = New(e, h.pipe, Config{
			WatchdogCycles: cfg.InstaWatchdogCycles,
			INT:            h.coll != nil,
			INTSink:        h.coll,
		})
	}

	h.vplc1 = plc.NewController(e, "vplc1", frame.NewMAC(1), plc.ControllerConfig{Primary: true})
	h.vplc2 = plc.NewController(e, "vplc2", frame.NewMAC(2), plc.ControllerConfig{})
	h.dev = iodevice.New(e, "io", frame.NewMAC(3), nil, nil)

	connect(e, h.vplc1, 0, cfg, 1)
	connect(e, h.vplc2, cfg.SecondaryJoinAt, cfg, 2)

	h.links = wire(e, h.vplc1, h.vplc2, h.dev, h.pipe, cfg.LinkBps)

	h.pipe.UsePool(&h.pool)
	h.vplc1.UsePool(&h.pool)
	h.vplc2.UsePool(&h.pool)
	h.dev.UsePool(&h.pool)

	if cfg.Trace != nil {
		cfg.Trace.Bind(e)
		h.pipe.SetTracer(cfg.Trace)
		h.vplc1.Host().SetTracer(cfg.Trace)
		h.vplc2.Host().SetTracer(cfg.Trace)
		h.dev.Host().SetTracer(cfg.Trace)
	}
	if cfg.Metrics != nil {
		h.pipe.RegisterMetrics(cfg.Metrics)
		simnet.RegisterHostMetrics(cfg.Metrics, h.vplc1.Host())
		simnet.RegisterHostMetrics(cfg.Metrics, h.vplc2.Host())
		simnet.RegisterHostMetrics(cfg.Metrics, h.dev.Host())
		for _, l := range h.links {
			simnet.RegisterLinkMetrics(cfg.Metrics, l)
		}
		telemetry.RegisterEngineMetrics(cfg.Metrics, e)
	}

	// The crash is a declarative fault plan: the default plan reproduces
	// Fig. 5 (vPLC1 killed at FailAt, never restarted), and cfg.Faults
	// swaps in any other scenario against the same registered targets.
	h.in = faults.NewInjector(e)
	h.in.Tracer = cfg.Trace
	h.in.RegisterHost("vplc1", h.vplc1)
	h.in.RegisterHost("vplc2", h.vplc2)
	for _, l := range h.links {
		h.in.RegisterLink(l.Name, l)
	}
	h.in.RegisterPort("vplc1", h.vplc1.Host().Port())
	h.in.RegisterPort("vplc2", h.vplc2.Host().Port())
	h.in.RegisterPort("io", h.dev.Host().Port())
	for i := 0; i < h.pipe.NumPorts(); i++ {
		h.in.RegisterPort(fmt.Sprintf("dp.%d", i), h.pipe.Port(i))
	}
	plan := faults.Plan{Name: "fig5", Events: []faults.Event{
		{At: cfg.FailAt, Kind: faults.KindHostStall, Target: "vplc1"},
	}}
	if cfg.Faults != nil {
		plan = *cfg.Faults
	}
	if err := h.in.Apply(plan); err != nil {
		return nil, fmt.Errorf("instaplc: bad fault plan: %w", err)
	}

	if h.app != nil {
		h.app.OnSwitchover = func(device, promoted frame.MAC) {
			if h.switchoverAt == 0 {
				h.switchoverAt = e.Now()
			}
		}
	}

	// Sample cumulative counters at each bin edge and diff them into
	// per-bin rates (exact: counters are integers).
	bins := int(cfg.Horizon/cfg.Bin) + 1
	h.fromVPLC1 = make([]int, 0, bins)
	h.fromVPLC2 = make([]int, 0, bins)
	h.toIO = make([]int, 0, bins)
	e.Every(sim.Time(cfg.Bin), cfg.Bin, func() {
		t1 := h.vplc1.Host().Port().TxFrames
		t2 := h.vplc2.Host().Port().TxFrames
		tio := h.dev.Host().Port().RxFrames
		h.fromVPLC1 = append(h.fromVPLC1, int(t1-h.prevV1))
		h.fromVPLC2 = append(h.fromVPLC2, int(t2-h.prevV2))
		h.toIO = append(h.toIO, int(tio-h.prevIO))
		h.prevV1, h.prevV2, h.prevIO = t1, t2, tio
	})
	return h, nil
}

// checkConnect refuses an IO cycle or device watchdog factor the
// PROFINET connect request cannot carry. It holds the cycle as a whole
// number of microseconds in a uint32 and the factor in a uint16 (see
// profinet.ConnectRequest): anything else would be truncated or wrap on
// the wire, and a cycle below 1 µs would reach the watchdogs as zero.
func checkConnect(cfg ExperimentConfig) error {
	const maxCycle = math.MaxUint32 * time.Microsecond
	switch {
	case cfg.Cycle < time.Microsecond || cfg.Cycle > maxCycle || cfg.Cycle%time.Microsecond != 0:
		return fmt.Errorf("instaplc: the connect request cannot carry an IO cycle of %v: want whole microseconds from 1µs to %v", cfg.Cycle, maxCycle)
	case cfg.DeviceWatchdogFactor < 1 || cfg.DeviceWatchdogFactor > math.MaxUint16:
		return fmt.Errorf("instaplc: the connect request cannot carry a device watchdog factor of %d: want 1 to %d", cfg.DeviceWatchdogFactor, math.MaxUint16)
	}
	return nil
}

// Engine returns the harness's engine (for scheduling periodic saves).
func (h *Harness) Engine() *sim.Engine { return h.engine }

// FramesOutstanding returns the frames alive in the cell: handed out by
// its pool and not yet returned. Zero whenever nothing is queued, on a
// wire or inside a station.
func (h *Harness) FramesOutstanding() int64 { return h.pool.Outstanding() }

// StacksOutstanding returns the INT stacks alive in the cell; there is
// none whenever there is no frame to carry one.
func (h *Harness) StacksOutstanding() int64 { return h.pool.StacksOutstanding() }

// Horizon returns the configured end of the run.
func (h *Harness) Horizon() sim.Time { return sim.Time(h.cfg.Horizon) }

// AdvanceTo runs the scenario up to instant t. Advancing in several
// steps is equivalent to one straight run — the cut points are
// invisible to the simulation.
func (h *Harness) AdvanceTo(t sim.Time) { h.engine.RunUntil(t) }

// Result collects the experiment's measurements at the current instant.
// It is non-destructive: the harness can keep advancing afterwards.
func (h *Harness) Result() ExperimentResult {
	res := ExperimentResult{
		Bin:          h.cfg.Bin,
		FailAt:       sim.Time(h.cfg.FailAt),
		SwitchoverAt: h.switchoverAt,
		FromVPLC1:    h.fromVPLC1,
		FromVPLC2:    h.fromVPLC2,
		ToIO:         h.toIO,
	}
	res.FailsafeEvents = h.dev.FailsafeEvents
	res.DeviceState = h.dev.State()
	if h.app != nil {
		res.AbsorbedFrames = h.app.AbsorbedFrames(h.dev.Host().MAC())
		res.Switchovers = h.app.Switchovers
	}
	res.InjectedFaults = h.in.Injected
	res.FaultTrace = h.in.TraceString()
	res.IOAvailability = binAvailability(res.ToIO)
	res.Accounting = simnet.Account(h.ports()...)
	if h.coll != nil {
		res.INTObservations = h.coll.Observations
		res.PathChanges = h.coll.PathChanges()
	}
	return res
}

func (h *Harness) ports() []*simnet.Port {
	ports := []*simnet.Port{h.vplc1.Host().Port(), h.vplc2.Host().Port(), h.dev.Host().Port()}
	for i := 0; i < h.pipe.NumPorts(); i++ {
		ports = append(ports, h.pipe.Port(i))
	}
	return ports
}

// FoldState folds the harness's live state in fixed order: engine,
// both vPLCs, the device, the app's control plane, the injector's
// record, every pipeline port and link, and the bin series so far.
func (h *Harness) FoldState(d *checkpoint.Digest) {
	h.engine.FoldState(d)
	h.vplc1.FoldState(d)
	h.vplc2.FoldState(d)
	h.dev.FoldState(d)
	if h.app != nil {
		h.app.FoldState(d)
	}
	h.in.FoldState(d)
	for i := 0; i < h.pipe.NumPorts(); i++ {
		h.pipe.Port(i).FoldState(d)
	}
	for _, l := range h.links {
		l.FoldState(d)
	}
	d.I64(int64(h.switchoverAt))
	for _, s := range [][]int{h.fromVPLC1, h.fromVPLC2, h.toIO} {
		d.Int(len(s))
		for _, v := range s {
			d.Int(v)
		}
	}
	if h.coll != nil {
		h.coll.FoldState(d)
	}
}

// Digest returns the state digest at the current instant.
func (h *Harness) Digest() uint64 {
	d := checkpoint.NewDigest()
	h.FoldState(d)
	return d.Sum()
}

// Save writes a replay-anchored checkpoint of the run to w.
func (h *Harness) Save(w io.Writer) error {
	return checkpoint.WriteHarness(w, CheckpointKind, checkpoint.Encode(WalkConfig, &h.cfg), int64(h.engine.Now()), h.Digest())
}

// RestoreWith reads a checkpoint, rebuilds the scenario from its
// recorded configuration with the given telemetry sinks, and replays
// deterministically to the checkpointed instant. A digest mismatch
// returns *checkpoint.DivergenceError. Because the restore replays
// from time zero, fresh sinks reproduce the original run's full
// timeline: a collector handed in (it must be empty) is fed the
// replayed window, and so is anything chained on its OnSink — the SLO
// watchdog — so observation-driven state is rebuilt exactly as a
// straight run would have built it.
func RestoreWith(r io.Reader, sinks sweep.Sinks) (*Harness, error) {
	return checkpoint.Replay[sim.Time](r, CheckpointKind, WalkConfig,
		func(cfg ExperimentConfig) (*Harness, error) {
			cfg.Sinks = sinks
			return BuildHarness(cfg)
		})
}

// Restore is RestoreWith under the signature bench/figs.go compiles
// against; the next bench-only PR moves that call over, this shim goes
// and RestoreWith takes its name, as the other kinds' restores have.
func Restore(r io.Reader, tracer *telemetry.Tracer, registry *telemetry.Registry) (*Harness, error) {
	return RestoreWith(r, sweep.Sinks{Trace: tracer, Metrics: registry})
}

// WalkConfig is the replayable configuration's field list, which is
// also a checkpoint's "config" section: two configurations describe the
// same run exactly when their encodings are equal. The sinks are no part
// of it; a restore supplies fresh ones.
func WalkConfig(c *checkpoint.Codec, cfg *ExperimentConfig) {
	checkpoint.Int(c, &cfg.Seed)
	checkpoint.Int(c, &cfg.Cycle)
	checkpoint.Int(c, &cfg.DeviceWatchdogFactor)
	checkpoint.Int(c, &cfg.InstaWatchdogCycles)
	checkpoint.Int(c, &cfg.SecondaryJoinAt)
	checkpoint.Int(c, &cfg.FailAt)
	checkpoint.Int(c, &cfg.Horizon)
	checkpoint.Int(c, &cfg.Bin)
	c.F64(&cfg.LinkBps)
	c.Bool(&cfg.DisableInstaPLC)
	faults.WalkPlan(c, &cfg.Faults)
	c.Bool(&cfg.INT)
}
