package reflection

import (
	"fmt"
	"io"

	"steelnet/internal/checkpoint"
	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/tap"
	"steelnet/internal/telemetry"
)

// CheckpointKind tags this experiment's checkpoint files.
const CheckpointKind = "reflection"

// Harness is the resumable form of one reflection run (one variant,
// one flow count). Build, advance in steps, checkpoint at any instant;
// Result finalizes (stops the probe flows and drains in-flight frames)
// and may be called once.
type Harness struct {
	cfg     Config
	variant Variant
	engine  *sim.Engine
	sender  *Sender
	refl    *Reflector
	tp      *tap.Tap
	links   []*simnet.Link
	coll    *intnet.Collector
	// pool is the cell's one frame free list: the sender Gets each probe
	// from it, whoever ends a probe's life — the sender on its return,
	// the reflector on a verdict other than XDP_TX — Puts it back, INT
	// stacks attach from it and strip into it, and every port's OnDrop
	// returns what the network destroys.
	pool frame.Pool

	finished bool
	result   Result
}

// maxFlows bounds a cell's concurrent probe flows. Every flow is set up
// before the first event fires (a ticker, a sequence counter, a tap
// slot), so a count read from a flag or a forged checkpoint must not
// ask for more memory than a machine has. 65,536 is over 2,000 times
// the paper's largest jitter cell (25 flows) and builds in about 14 MB.
const maxFlows = 1 << 16

// checkConfig refuses a configuration no cell can be built from.
func checkConfig(cfg Config) error {
	switch {
	case cfg.Cycle <= 0:
		return fmt.Errorf("reflection: non-positive probe cycle %v", cfg.Cycle)
	case cfg.Cycles < 1:
		return fmt.Errorf("reflection: need at least one probe cycle, have %d", cfg.Cycles)
	case cfg.Flows < 1 || cfg.Flows > maxFlows:
		return fmt.Errorf("reflection: %d flows, want 1 to %d", cfg.Flows, maxFlows)
	}
	return nil
}

// NewHarness builds one reflection cell without running it. It panics
// on a configuration no cell can be built from.
func NewHarness(cfg Config, v Variant) *Harness {
	h, err := newHarness(cfg, v)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// newHarness is NewHarness returning an error for a configuration no
// cell can be built from.
func newHarness(cfg Config, v Variant) (*Harness, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	e := sim.NewEngine(cfg.Seed)
	h := &Harness{cfg: cfg, variant: v, engine: e}
	stk := host.NewStack(cfg.Profile, e.RNG("stack"))
	stk.SetActiveFlows(cfg.Flows)

	h.sender = NewSender(e, "sender", frame.NewMAC(1), frame.NewMAC(2), cfg.ProbeSize)
	costs := cfg.Costs
	h.refl = NewReflector(e, "reflector", frame.NewMAC(2), stk, v, &costs)
	h.tp = tap.New(e, "tap", cfg.TapCfg)

	l1 := simnet.Connect(e, "sender-tap", h.sender.Host().Port(), h.tp.PortA(), cfg.LinkBps, 500*sim.Nanosecond)
	l2 := simnet.Connect(e, "tap-reflector", h.tp.PortB(), h.refl.Host().Port(), cfg.LinkBps, 500*sim.Nanosecond)
	h.links = []*simnet.Link{l1, l2}

	h.sender.UsePool(&h.pool)
	h.refl.UsePool(&h.pool)
	// The tap is no pooled component: its ports' drops are wired here.
	h.tp.PortA().OnDrop = h.pool.Put
	h.tp.PortB().OnDrop = h.pool.Put
	// One round trip per flow per cycle from the flow's offset to the
	// horizon, both ends included for the flow at offset zero.
	h.tp.ReserveRoundTrips(cfg.Cycles + 2)

	if cfg.INT {
		h.coll = cfg.Collector
		if h.coll == nil {
			h.coll = intnet.NewCollector()
		}
		h.sender.EnableINT()
		h.refl.Host().SetINTSink(h.coll)
	}

	if cfg.Trace != nil {
		cfg.Trace.Bind(e)
		h.sender.Host().SetTracer(cfg.Trace)
		h.refl.Host().SetTracer(cfg.Trace)
		h.tp.PortA().SetTracer(cfg.Trace)
		h.tp.PortB().SetTracer(cfg.Trace)
	}
	if cfg.Metrics != nil {
		simnet.RegisterHostMetrics(cfg.Metrics, h.sender.Host())
		simnet.RegisterHostMetrics(cfg.Metrics, h.refl.Host())
		simnet.RegisterPortMetrics(cfg.Metrics, h.tp.PortA())
		simnet.RegisterPortMetrics(cfg.Metrics, h.tp.PortB())
		simnet.RegisterLinkMetrics(cfg.Metrics, l1)
		simnet.RegisterLinkMetrics(cfg.Metrics, l2)
		telemetry.RegisterEngineMetrics(cfg.Metrics, e)
	}

	// Stagger flows across the cycle to avoid synchronized bursts, like
	// a TSN schedule would.
	for fl := 0; fl < cfg.Flows; fl++ {
		offset := sim.Duration(fl) * cfg.Cycle / sim.Duration(cfg.Flows+1)
		h.sender.StartFlow(uint32(fl+1), sim.Time(offset), cfg.Cycle)
	}
	return h, nil
}

// Engine returns the harness's engine.
func (h *Harness) Engine() *sim.Engine { return h.engine }

// FramesOutstanding returns the probes alive in the cell: handed out by
// its pool and not yet returned. Zero once Result has drained the run.
func (h *Harness) FramesOutstanding() int64 { return h.pool.Outstanding() }

// Horizon returns the probing end time (after it, Result drains).
func (h *Harness) Horizon() sim.Time {
	return sim.Time(h.cfg.Cycle) * sim.Time(h.cfg.Cycles+1)
}

// AdvanceTo runs the cell up to instant t.
func (h *Harness) AdvanceTo(t sim.Time) { h.engine.RunUntil(t) }

// Result finalizes the run — stops the probe flows, drains in-flight
// frames and computes the delay/jitter distributions. The first call
// finalizes; later calls return the cached result.
func (h *Harness) Result() Result {
	if h.finished {
		return h.result
	}
	h.finished = true
	h.sender.Stop()
	h.engine.Run() // drain in-flight probes

	matched := 0
	for fl := 1; fl <= h.cfg.Flows; fl++ {
		matched += len(h.tp.RoundTrip(uint32(fl)))
	}
	delays := metrics.NewSeries(matched)
	for fl := 0; fl < h.cfg.Flows; fl++ {
		for _, rtt := range h.tp.RoundTrip(uint32(fl + 1)) {
			delays.Add(float64(rtt.Delay) / 1e3) // µs
		}
	}
	jitter := metrics.NewSeries(delays.Len())
	med := delays.Median()
	for d := range delays.All() {
		dev := (d - med) * 1e3 // ns
		if dev < 0 {
			dev = -dev
		}
		jitter.Add(dev)
	}
	h.result = Result{Variant: h.variant.Name, Flows: h.cfg.Flows, Delays: delays, Jitter: jitter}
	if h.variant.Ring != nil {
		h.result.RingRecords = h.variant.Ring.Produced
	}
	return h.result
}

// FoldState folds the cell's live state: engine, the variant's program
// (instructions, maps, rings), reflector verdict counters, tap and
// host ports, links.
func (h *Harness) FoldState(d *checkpoint.Digest) {
	h.engine.FoldState(d)
	h.variant.Program.FoldState(d)
	d.U64(h.refl.Reflected)
	d.U64(h.refl.Passed)
	d.U64(h.refl.Aborted)
	h.sender.Host().FoldState(d)
	h.refl.Host().FoldState(d)
	h.tp.PortA().FoldState(d)
	h.tp.PortB().FoldState(d)
	for _, l := range h.links {
		l.FoldState(d)
	}
	d.Bool(h.finished)
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

// Cell is what a reflection checkpoint's "config" section records: the
// configuration, then the variant's registry name.
type Cell struct {
	Config
	Variant string
}

// Save writes a replay-anchored checkpoint of the cell to w. Save
// before Result: a finalized cell has drained its flows and is not a
// resumable state.
func (h *Harness) Save(w io.Writer) error {
	if h.finished {
		return fmt.Errorf("reflection: cannot checkpoint a finalized harness")
	}
	config := checkpoint.Encode(WalkCell, &Cell{h.cfg, h.variant.Name})
	return checkpoint.WriteHarness(w, CheckpointKind, config, int64(h.engine.Now()), h.Digest())
}

// Restore reads a checkpoint, rebuilds the cell with the given
// telemetry sinks (the variant is rebuilt by name from the registry)
// and replays to the checkpointed instant, verifying the state digest.
// A collector handed in must be empty: the replay feeds it, and
// anything chained on its OnSink, from instant zero. A recorded
// configuration no cell can be built from is an error.
func Restore(r io.Reader, sinks sweep.Sinks) (*Harness, error) {
	return checkpoint.Replay[sim.Time](r, CheckpointKind, WalkCell,
		func(c Cell) (*Harness, error) {
			v, err := NewVariant(c.Variant)
			if err != nil {
				return nil, fmt.Errorf("reflection: checkpoint names unknown variant: %w", err)
			}
			c.Sinks = sinks
			return newHarness(c.Config, v)
		})
}

// WalkResult is what a resumable Fig. 4 sweep records of a completed
// cell: the full delay and jitter distributions.
func WalkResult(c *checkpoint.Codec, r *Result) {
	c.Str(&r.Variant)
	checkpoint.Int(c, &r.Flows)
	walkSeries(c, &r.Delays)
	walkSeries(c, &r.Jitter)
	checkpoint.Int(c, &r.RingRecords)
}

// walkSeries records a series as its samples in insertion order.
func walkSeries(c *checkpoint.Codec, s **metrics.Series) {
	var samples []float64
	if !c.Decoding() {
		samples = (*s).Samples()
	}
	c.F64Slice(&samples)
	if c.Decoding() {
		*s = metrics.NewSeriesFrom(samples)
	}
}

// WalkCell is the field list of a cell checkpoint's "config" section.
func WalkCell(c *checkpoint.Codec, cfg *Cell) {
	checkpoint.Int(c, &cfg.Seed)
	walkProfile(c, &cfg.Profile)
	walkCosts(c, &cfg.Costs)
	c.F64(&cfg.LinkBps)
	checkpoint.Int(c, &cfg.Cycle)
	checkpoint.Int(c, &cfg.Cycles)
	checkpoint.Int(c, &cfg.Flows)
	checkpoint.Int(c, &cfg.ProbeSize)
	checkpoint.Int(c, &cfg.TapCfg.TimestampStep)
	checkpoint.Int(c, &cfg.TapCfg.PassThrough)
	checkpoint.Int(c, &cfg.TapCfg.ClockOffset)
	c.Bool(&cfg.INT)
	c.Str(&cfg.Variant)
}

func walkProfile(c *checkpoint.Codec, p *host.Profile) {
	c.Str(&p.Name)
	checkpoint.Int(c, &p.PCIeBase)
	c.F64(&p.PCIePerByteNs)
	checkpoint.Int(c, &p.NICBase)
	checkpoint.Int(c, &p.KernelBase)
	checkpoint.Int(c, &p.SchedJitterSD)
	c.F64(&p.SpikeProb)
	checkpoint.Int(c, &p.SpikeScale)
	checkpoint.Int(c, &p.ContentionPerFlowSD)
}

func walkCosts(c *checkpoint.Codec, m *ebpf.CostModel) {
	checkpoint.Int(c, &m.ALU)
	checkpoint.Int(c, &m.PktMem)
	checkpoint.Int(c, &m.StackMem)
	checkpoint.Int(c, &m.CallBase)
	checkpoint.Int(c, &m.Ktime)
	checkpoint.Int(c, &m.MapLookup)
	checkpoint.Int(c, &m.MapUpdate)
	checkpoint.Int(c, &m.RingbufOutput)
	c.F64(&m.RingbufWakeProb)
	checkpoint.Int(c, &m.RingbufWakeCost)
	checkpoint.Int(c, &m.RunNoiseSD)
}
