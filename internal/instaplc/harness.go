package instaplc

import (
	"bytes"
	"encoding/json"
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
// come from a command line, a run spec or a checkpoint: what
// CheckConnect refuses, or a fault plan naming a target the scenario
// does not register, is an error.
func BuildHarness(cfg ExperimentConfig) (*Harness, error) {
	if err := CheckConnect(cfg); err != nil {
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

	connect(h.vplc1, 0, cfg, 1)
	connect(h.vplc2, cfg.SecondaryJoinAt, cfg, 2)

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
	e.Every(sim.Time(cfg.Bin), cfg.Bin, (*binEv)(h))
	return h, nil
}

// binEv is a harness as the handler of its bin edges.
type binEv Harness

func (b *binEv) Fire() {
	h := (*Harness)(b)
	t1 := h.vplc1.Host().Port().TxFrames
	t2 := h.vplc2.Host().Port().TxFrames
	tio := h.dev.Host().Port().RxFrames
	h.fromVPLC1 = append(h.fromVPLC1, int(t1-h.prevV1))
	h.fromVPLC2 = append(h.fromVPLC2, int(t2-h.prevV2))
	h.toIO = append(h.toIO, int(tio-h.prevIO))
	h.prevV1, h.prevV2, h.prevIO = t1, t2, tio
}

// maxBins bounds the Fig. 5 rate series a run allocates up front, as
// reflection bounds a cell's delay slab.
const maxBins = 1 << 24

// CheckConnect refuses an IO cycle or device watchdog factor the
// PROFINET connect request cannot carry. It holds the cycle as a whole
// number of microseconds in a uint32 and the factor in a uint16 (see
// profinet.ConnectRequest): anything else would be truncated or wrap on
// the wire, and a cycle below 1 µs would reach the watchdogs as zero.
// It also refuses a negative horizon, a rate bin that is not positive,
// more than maxBins bins, a link rate that is not a positive finite
// number and a secondary that joins before time zero: a forged run spec
// would otherwise panic in the simulator. BuildHarness runs it; a sweep
// deriving its cells from one base configuration runs it once, before
// any cell.
func CheckConnect(cfg ExperimentConfig) error {
	const maxCycle = math.MaxUint32 * time.Microsecond
	switch {
	case cfg.Horizon < 0:
		return fmt.Errorf("instaplc: negative horizon %v", cfg.Horizon)
	case cfg.Bin <= 0:
		return fmt.Errorf("instaplc: rate bin %v is not positive", cfg.Bin)
	case cfg.Horizon/cfg.Bin > maxBins:
		return fmt.Errorf("instaplc: a %v horizon in %v bins is more than %d bins", cfg.Horizon, cfg.Bin, maxBins)
	case cfg.Cycle < time.Microsecond || cfg.Cycle > maxCycle || cfg.Cycle%time.Microsecond != 0:
		return fmt.Errorf("instaplc: the connect request cannot carry an IO cycle of %v: want whole microseconds from 1µs to %v", cfg.Cycle, maxCycle)
	case cfg.DeviceWatchdogFactor < 1 || cfg.DeviceWatchdogFactor > math.MaxUint16:
		return fmt.Errorf("instaplc: the connect request cannot carry a device watchdog factor of %d: want 1 to %d", cfg.DeviceWatchdogFactor, math.MaxUint16)
	case !(cfg.LinkBps > 0) || math.IsInf(cfg.LinkBps, 1):
		return fmt.Errorf("instaplc: link rate %v b/s is not a positive finite number", cfg.LinkBps)
	case cfg.SecondaryJoinAt < 0:
		return fmt.Errorf("instaplc: the secondary joins at %v, before the run starts", cfg.SecondaryJoinAt)
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

// Save writes a replay-anchored checkpoint of the run to w. Its spec
// is the configuration as JSON, without the sinks.
func (h *Harness) Save(w io.Writer) error {
	spec, err := json.Marshal(h.cfg)
	if err != nil {
		return fmt.Errorf("instaplc: encoding the run spec: %w", err)
	}
	return checkpoint.Write(w, spec, int64(h.engine.Now()), h.Digest())
}

// DecodeSpec decodes a checkpoint's run spec strictly: it must be
// exactly what Save writes for some configuration. An unknown field,
// data after the JSON, or the same values spelled another way (key
// order, key case, whitespace) is checkpoint.ErrCorrupt, so an
// accepted spec re-encodes to itself.
func DecodeSpec(spec []byte) (ExperimentConfig, error) {
	var cfg ExperimentConfig
	if err := json.Unmarshal(spec, &cfg); err != nil {
		return ExperimentConfig{}, fmt.Errorf("%w: run spec: %v", checkpoint.ErrCorrupt, err)
	}
	if again, err := json.Marshal(cfg); err != nil || !bytes.Equal(again, spec) {
		return ExperimentConfig{}, fmt.Errorf("%w: the run spec is not in the form Save writes (an unknown field, or non-canonical JSON)", checkpoint.ErrCorrupt)
	}
	return cfg, nil
}

// RestoreWith reads a checkpoint, rebuilds the scenario from its
// recorded configuration with the given telemetry sinks, and replays
// deterministically to the checkpointed instant, which must lie within
// the run. A digest mismatch returns *checkpoint.DivergenceError. Because the restore replays
// from time zero, fresh sinks reproduce the original run's full
// timeline: a collector handed in (it must be empty) is fed the
// replayed window, and so is its OnSink subscriber — the SLO
// watchdog — so observation-driven state is rebuilt exactly as a
// straight run would have built it.
func RestoreWith(r io.Reader, sinks sweep.Sinks) (*Harness, error) {
	spec, at, digest, err := checkpoint.Read(r)
	if err != nil {
		return nil, err
	}
	cfg, err := DecodeSpec(spec)
	if err != nil {
		return nil, err
	}
	if at < 0 || at > int64(cfg.Horizon) {
		return nil, fmt.Errorf("%w: taken at %v, outside the run's 0 to %v", checkpoint.ErrCorrupt, time.Duration(at), cfg.Horizon)
	}
	cfg.Sinks = sinks
	h, err := BuildHarness(cfg)
	if err != nil {
		return nil, err
	}
	h.AdvanceTo(sim.Time(at))
	if got := h.Digest(); got != digest {
		return nil, &checkpoint.DivergenceError{At: at, Recorded: digest, Replayed: got}
	}
	return h, nil
}

// Restore is RestoreWith under the signature bench/figs.go compiles
// against; the next bench-only PR moves that call over, this shim goes
// and RestoreWith takes its name, as the other kinds' restores have.
func Restore(r io.Reader, tracer *telemetry.Tracer, registry *telemetry.Registry) (*Harness, error) {
	return RestoreWith(r, sweep.Sinks{Trace: tracer, Metrics: registry})
}
