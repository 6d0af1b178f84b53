package core

import (
	"fmt"
	"strconv"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	intnet "steelnet/internal/int"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
)

// Headless is the gateway-facing run driver: one Fig. 5-class scenario
// advanced in fixed slices of simulated time, with a deterministic
// Sample taken at every slice boundary. Where the figure harnesses run
// to a horizon and render a table once, a Headless run is a stream —
// steelnetd steps it, samples it, and republishes the changes — so the
// driver owns exactly the state a long-running server needs: the
// harness, its telemetry registry, the INT collector, the SLO watchdog
// and a per-sink loss aggregate, all attached before the first event
// fires.
type Headless struct {
	cfg HeadlessConfig
	h   *instaplc.Harness
	// sinks are the attachments the harness reports into: always a
	// registry and a collector, a tracer when the spec asked for one.
	sinks sweep.Sinks
	wd    *intnet.Watchdog

	loss      map[string]*sinkLoss
	lossOrder []string
	// vals is the registry read's scratch, kept between samples, and
	// intTags the tag names of the collector's path digests, four per
	// digest in its first-seen order: both are built once, not per
	// sample.
	vals    []telemetry.MetricValue
	intTags []string
	seq     uint64
	next    time.Duration
	done    bool
}

// sinkLoss accumulates received/lost counts at one INT sink; tag is
// its loss fraction's tag name.
type sinkLoss struct {
	received, lost uint64
	tag            string
}

// HeadlessConfig declares one run. It is the wire-level run spec the
// gateway accepts, so every field must be derivable from a JSON body.
type HeadlessConfig struct {
	// Seed drives the whole run; identical configs replay byte-identically.
	Seed uint64 `json:"seed"`
	// Horizon ends the run; Slice is the publish interval (both
	// simulated time). Slice must divide the run into at least one step.
	Horizon time.Duration `json:"horizon"`
	Slice   time.Duration `json:"slice"`
	// Cycle is the IO cycle time (zero: the Fig. 5 default).
	Cycle time.Duration `json:"cycle,omitempty"`
	// FailAt is when the primary vPLC crashes (zero: the Fig. 5
	// default, scaled into the horizon when the horizon is shorter).
	FailAt time.Duration `json:"fail_at,omitempty"`
	// Faults optionally replaces the default crash with a declarative
	// plan in the internal/faults spec grammar.
	Faults string `json:"faults,omitempty"`
	// SLO optionally watches objectives in the intnet spec grammar;
	// breaches appear in every Sample.
	SLO string `json:"slo,omitempty"`
	// Baseline disables InstaPLC (plain L2) — the failing comparison run.
	Baseline bool `json:"baseline,omitempty"`
	// Trace records the run's event-level telemetry trace for the
	// gateway's Chrome/Perfetto export.
	Trace bool `json:"trace,omitempty"`
}

// normalize fills defaults and scales the stock Fig. 5 timeline into a
// shortened horizon so a 200 ms gateway run still contains a failover.
func (cfg HeadlessConfig) normalize() (HeadlessConfig, instaplc.ExperimentConfig, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 3 * time.Second
	}
	if cfg.Slice <= 0 {
		cfg.Slice = 50 * time.Millisecond
	}
	if cfg.Slice > cfg.Horizon {
		return cfg, instaplc.ExperimentConfig{}, fmt.Errorf("core: slice %v exceeds horizon %v", cfg.Slice, cfg.Horizon)
	}
	ecfg := instaplc.DefaultExperimentConfig()
	ecfg.Seed = cfg.Seed
	ecfg.Horizon = cfg.Horizon
	if cfg.Cycle > 0 {
		ecfg.Cycle = cfg.Cycle
	}
	if cfg.FailAt > 0 {
		ecfg.FailAt = cfg.FailAt
	} else if ecfg.FailAt >= cfg.Horizon {
		// Keep the default crash inside a shortened run: secondary joins
		// at 1/8 of the horizon, the primary dies at 3/8.
		ecfg.SecondaryJoinAt = cfg.Horizon / 8
		ecfg.FailAt = 3 * cfg.Horizon / 8
	}
	ecfg.DisableInstaPLC = cfg.Baseline
	ecfg.INT = !cfg.Baseline
	if cfg.Faults != "" {
		plan, err := faults.ParsePlan(cfg.Faults)
		if err != nil {
			return cfg, ecfg, err
		}
		ecfg.Faults = &plan
	}
	return cfg, ecfg, nil
}

// NewHeadless builds the run at t=0: the registry, collector, loss
// aggregate and watchdog exist before the first simulated event. The
// returned driver has taken no steps; the first Step advances to the
// first slice boundary.
func NewHeadless(cfg HeadlessConfig) (*Headless, error) {
	cfg, ecfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	d := &Headless{
		cfg:   cfg,
		sinks: sweep.Sinks{Metrics: telemetry.NewRegistry(), Collector: intnet.NewCollector()},
		loss:  map[string]*sinkLoss{},
		next:  cfg.Slice,
	}
	if cfg.Trace {
		d.sinks.Trace = telemetry.NewTracer(nil) // harness binds the engine
	}
	d.sinks.Collector.OnSink = func(obs intnet.Observation) {
		sl := d.loss[obs.Sink]
		if sl == nil {
			sl = &sinkLoss{tag: "loss/" + obs.Sink}
			d.loss[obs.Sink] = sl
			d.lossOrder = append(d.lossOrder, obs.Sink)
		}
		sl.received++
		sl.lost += obs.NewlyLost
	}
	if cfg.SLO != "" {
		plan, err := intnet.ParseSLOPlan(cfg.SLO)
		if err != nil {
			return nil, err
		}
		d.wd = intnet.NewWatchdog(plan, nil)
		d.wd.Attach(d.sinks.Collector) // chains after the loss aggregate
	}
	ecfg.Sinks = d.sinks
	if d.h, err = instaplc.BuildHarness(ecfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Config returns the normalized run spec the driver was built from.
func (d *Headless) Config() HeadlessConfig { return d.cfg }

// Registry returns the run's metrics registry. Read it only from the
// goroutine stepping the run.
func (d *Headless) Registry() *telemetry.Registry { return d.sinks.Metrics }

// TraceEvents returns the run's recorded telemetry events (nil unless
// the spec set Trace). Read only from the goroutine stepping the run.
func (d *Headless) TraceEvents() []telemetry.Event {
	if d.sinks.Trace == nil {
		return nil
	}
	return d.sinks.Trace.Events()
}

// Breaches returns the SLO breach log (nil without an SLO plan).
func (d *Headless) Breaches() []intnet.Breach {
	if d.wd == nil {
		return nil
	}
	return d.wd.Breaches()
}

// Now returns the run's current simulated time in nanoseconds.
func (d *Headless) Now() int64 { return int64(d.h.Engine().Now()) }

// Done reports whether the run has reached its horizon.
func (d *Headless) Done() bool { return d.done }

// Step advances one slice of simulated time (the final slice clamps to
// the horizon) and reports whether the run is finished. Stepping a
// finished run is a no-op that keeps reporting done.
func (d *Headless) Step() (done bool) {
	if d.done {
		return true
	}
	t := d.next
	if t >= d.cfg.Horizon {
		t = d.cfg.Horizon
		d.done = true
	}
	d.h.AdvanceTo(sim.Time(t))
	d.next += d.cfg.Slice
	d.seq++
	return d.done
}

// Result renders the finished run's Fig. 5 result.
func (d *Headless) Result() instaplc.ExperimentResult { return d.h.Result() }

// Tag is one sampled value in the gateway's flat tag space — the
// steelnet analogue of a PLC tag: metric families, INT path aggregates,
// per-sink loss fractions and SLO breach counts all flatten into
// (name, value) pairs so change detection and the rule engine work on
// one namespace.
type Tag struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// SinkLoss is one sink's cumulative loss aggregate.
type SinkLoss struct {
	Sink           string
	Received, Lost uint64
}

// Fraction is lost/(lost+received), 0 before any arrival.
func (s SinkLoss) Fraction() float64 {
	if s.Received+s.Lost == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Lost+s.Received)
}

// Sample is one deterministic view of the run at a slice boundary.
// Slices of the same run spec sample identically on every replay; the
// gateway's publish stream is a pure function of the spec.
type Sample struct {
	// Seq counts slice boundaries from 1.
	Seq uint64
	// SimNS is the simulated time of the boundary.
	SimNS int64
	// Tags is the flattened tag space in deterministic order.
	Tags []Tag
	// Digests are the collector's INT path aggregates (first-seen order).
	Digests []*intnet.PathDigest
	// Breaches is the full SLO breach log so far (onset order).
	Breaches []intnet.Breach
	// Loss lists per-sink loss aggregates in first-seen order.
	Loss []SinkLoss
}

// Sample reads the run's state at the current instant. Call between
// Steps, on the stepping goroutine.
func (d *Headless) Sample() Sample {
	s := Sample{
		Seq:      d.seq,
		SimNS:    d.Now(),
		Digests:  d.sinks.Collector.Digests(),
		Breaches: d.Breaches(),
		Loss:     make([]SinkLoss, 0, len(d.lossOrder)),
	}
	d.vals = d.sinks.Metrics.AppendValues(d.vals[:0])
	// Tags is the caller's to keep, so it is new every sample, made at
	// its final size: the rows the loops below append.
	n := len(d.vals) + 4*len(s.Digests) + len(d.lossOrder)
	if d.wd != nil {
		n += 2
	}
	s.Tags = make([]Tag, 0, n)
	for _, v := range d.vals {
		s.Tags = append(s.Tags, Tag{Name: v.Key, Value: v.Value})
	}
	for i, p := range s.Digests {
		if 4*i == len(d.intTags) { // the collector only ever appends digests
			prefix := "int/" + p.Sink + "/" + p.Source + "/" + strconv.FormatUint(uint64(p.Flow), 10)
			d.intTags = append(d.intTags, prefix+"/count", prefix+"/mean_ns", prefix+"/max_ns", prefix+"/jitter_ns")
		}
		name := d.intTags[4*i : 4*i+4]
		s.Tags = append(s.Tags,
			Tag{Name: name[0], Value: float64(p.Count)},
			Tag{Name: name[1], Value: p.MeanNS()},
			Tag{Name: name[2], Value: float64(p.MaxNS)},
			Tag{Name: name[3], Value: p.MeanJitterNS()},
		)
	}
	for _, sink := range d.lossOrder {
		sl := d.loss[sink]
		agg := SinkLoss{Sink: sink, Received: sl.received, Lost: sl.lost}
		s.Loss = append(s.Loss, agg)
		s.Tags = append(s.Tags, Tag{Name: sl.tag, Value: agg.Fraction()})
	}
	open := 0
	for _, b := range s.Breaches {
		if b.ClearedAtNS < 0 {
			open++
		}
	}
	if d.wd != nil {
		s.Tags = append(s.Tags,
			Tag{Name: "slo/breaches", Value: float64(len(s.Breaches))},
			Tag{Name: "slo/open", Value: float64(open)},
		)
	}
	return s
}
