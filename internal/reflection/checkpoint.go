package reflection

import (
	"fmt"
	"slices"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/tap"
	"steelnet/internal/telemetry"
)

// Harness is one reflection run (one variant, one flow count) in steps.
// Build, advance to any instant; Result finalizes (stops the probe
// flows and drains in-flight frames) and may be called once.
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
	// delays is the cell's one result slab, flow-major: the tap hands
	// each round trip to record, which writes its delay (µs) into the
	// next of its flow's Cycles+2 slots; matched counts them per flow.
	// finish compacts the slab in place; Result's delay series adopts
	// it and sorts it.
	delays  []float64
	matched []int

	finished bool
	result   Result
}

// maxFlows bounds a cell's concurrent probe flows. Every flow is set up
// before the first event fires (a ticker, a sequence counter, a tap
// slot), so a count read from a flag must not ask for more memory than
// a machine has. 65,536 is over 2,000 times
// the paper's largest jitter cell (25 flows) and builds in about 14 MB.
const maxFlows = 1 << 16

// maxSamples bounds a cell's result slab, Flows × (Cycles+2) delays,
// which is allocated when the cell is built: 2^24 samples are 128 MiB,
// 33 times the paper's largest cell (25 flows × 20,000 cycles).
const maxSamples = 1 << 24

// checkConfig refuses a configuration no cell can be built from.
func checkConfig(cfg Config) error {
	switch {
	case cfg.Cycle <= 0:
		return fmt.Errorf("reflection: non-positive probe cycle %v", cfg.Cycle)
	case cfg.Cycles < 1:
		return fmt.Errorf("reflection: need at least one probe cycle, have %d", cfg.Cycles)
	case cfg.Flows < 1 || cfg.Flows > maxFlows:
		return fmt.Errorf("reflection: %d flows, want 1 to %d", cfg.Flows, maxFlows)
	case cfg.Cycles > maxSamples/cfg.Flows-2:
		return fmt.Errorf("reflection: %d flows × (%d cycles + 2) round trips exceed the %d a cell holds",
			cfg.Flows, cfg.Cycles, maxSamples)
	}
	return nil
}

// NewHarness builds one reflection cell without running it. It panics
// on a configuration no cell can be built from; the sweeps run
// checkConfig first and return the error instead.
func NewHarness(cfg Config, v Variant) *Harness {
	if err := checkConfig(cfg); err != nil {
		panic(err.Error())
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
	h.delays = make([]float64, cfg.Flows*h.perFlow())
	h.matched = make([]int, cfg.Flows)
	h.tp.OnRoundTrip = h.record

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
	return h
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

// perFlow is the most round trips one flow measures: one per cycle from
// the flow's offset to the horizon, both ends included for the flow at
// offset zero.
func (h *Harness) perFlow() int { return h.cfg.Cycles + 2 }

// AdvanceTo runs the cell up to instant t, or to the horizon if t lies
// beyond it: probing ends there, and Result drains what is in flight.
func (h *Harness) AdvanceTo(t sim.Time) { h.engine.RunUntil(min(t, h.Horizon())) }

// record writes one matched round trip into its flow's slots of the
// result slab; a flow has no more round trips than slots.
func (h *Harness) record(flow uint32, r tap.RTT) {
	i, per := int(flow)-1, h.perFlow()
	h.delays[i*per : (i+1)*per][h.matched[i]] = float64(r.Delay) / 1e3 // µs
	h.matched[i]++
}

// finish stops the probe flows, drains in-flight frames and compacts
// the result slab in place, flow by flow in match order: the order the
// delay series sums in. It returns the round trips in that order; the
// first call finishes, later ones return the same slice.
func (h *Harness) finish() []float64 {
	if !h.finished {
		h.finished = true
		h.sender.Stop()
		h.engine.Run() // drain in-flight probes
		n, per := 0, h.perFlow()
		for i, m := range h.matched {
			n += copy(h.delays[n:], h.delays[i*per:i*per+m])
		}
		h.delays, h.matched = h.delays[:n:n], nil
	}
	return h.delays
}

// Result finalizes the run — stops the probe flows, drains in-flight
// frames and computes the delay/jitter distributions. The delay series
// adopts the result slab and sorts it in place; the jitter series is
// built from it already sorted. The first call finalizes; later calls
// return the cached result.
func (h *Harness) Result() Result {
	if h.result.Delays != nil {
		return h.result
	}
	delays := metrics.NewSeriesFrom(h.finish())
	h.delays = nil
	jitter := metrics.ScaledJitter(delays, 1e3) // µs to ns
	h.result = Result{Variant: h.variant.Name, Flows: h.cfg.Flows, Delays: delays, Jitter: jitter}
	if h.variant.Ring != nil {
		h.result.RingRecords = h.variant.Ring.Produced
	}
	return h.result
}

// ConsecutiveJitterEvents finalizes the run like Result and scans its
// jitter in arrival order, flow by flow and cycle by cycle, for runs of
// at least minRun consecutive round trips above thresholdNS — the
// "consecutive jitter events … cycle after cycle" §2.1 faults existing
// evaluations for not reporting, because they are what expire PROFINET
// watchdog counters. Result sorts the round trips, so the scan must
// come before it, and panics after; it pays a sorted copy for the
// median and an arrival-order jitter series, which the figures do not.
func (h *Harness) ConsecutiveJitterEvents(thresholdNS float64, minRun int) []metrics.BurstEvent {
	if h.result.Delays != nil {
		panic("reflection: ConsecutiveJitterEvents after Result: the round trips are sorted")
	}
	ds := h.finish()
	sorted := metrics.NewSeriesFrom(slices.Clone(ds))
	sorted.Sort()
	med := sorted.Median()
	jitter := metrics.NewSeries(len(ds))
	for _, d := range ds {
		dev := (d - med) * 1e3 // ns
		if dev < 0 {
			dev = -dev
		}
		jitter.Add(dev)
	}
	return metrics.Bursts(jitter, thresholdNS, minRun)
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
