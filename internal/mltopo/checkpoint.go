package mltopo

import (
	"fmt"
	"io"
	"time"

	"steelnet/internal/checkpoint"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/mlwork"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
)

// CheckpointKind tags this experiment's checkpoint files.
const CheckpointKind = "mltopo"

// Harness is the resumable form of one Fig. 6 cell: topology built,
// clients started, advanced in steps, checkpointable at any instant.
type Harness struct {
	sc Scenario
	b  built
}

// NewHarness builds one cell without running it: the topology is
// instantiated and every client's first request is scheduled.
func NewHarness(sc Scenario) *Harness {
	if sc.Clients < 1 {
		panic("mltopo: need at least one client")
	}
	if sc.ClientsPerServer < 1 {
		sc.ClientsPerServer = 16
	}
	if sc.Deg.CompressionRatio < 1 {
		sc.Deg.CompressionRatio = 1
	}
	var pl plant
	switch sc.Kind {
	case Ring:
		pl = buildRing(sc)
	case LeafSpine:
		pl = buildLeafSpine(sc)
	case MLAware:
		pl = buildMLAware(sc)
	default:
		panic(fmt.Sprintf("mltopo: unknown kind %d", sc.Kind))
	}
	e := sim.NewEngine(sc.Seed)
	b := instantiate(e, simnet.Build(e, pl.g, simnet.DefaultSwitchConfig), sc, pl)
	// Desynchronize clients across the period, as independent cameras
	// would be.
	rng := b.engine.RNG("phase")
	for _, c := range b.clients {
		c.Start(sim.Time(rng.DurationRange(0, sc.Profile.Period)))
	}
	return &Harness{sc: sc, b: b}
}

// Engine returns the harness's engine.
func (h *Harness) Engine() *sim.Engine { return h.b.engine }

// Collector returns the INT collector (nil unless sc.INT).
func (h *Harness) Collector() *intnet.Collector { return h.b.coll }

// Horizon returns the configured end of the run.
func (h *Harness) Horizon() sim.Time { return sim.Time(h.sc.Horizon) }

// AdvanceTo runs the cell up to instant t.
func (h *Harness) AdvanceTo(t sim.Time) { h.b.engine.RunUntil(t) }

// Result collects the cell's measurements at the current instant. It is
// non-destructive: the harness can keep advancing afterwards.
func (h *Harness) Result() Result {
	lat := metrics.NewSeries(1024)
	var completed uint64
	for _, c := range h.b.clients {
		for _, v := range c.Latencies.Samples() {
			lat.Add(v)
		}
		completed += c.Completed
	}
	res := Result{
		Kind:          h.sc.Kind,
		App:           h.sc.Profile.Name,
		Clients:       h.sc.Clients,
		MeanLatencyMS: lat.Mean(),
		P99LatencyMS:  lat.P99(),
		Requests:      completed,
	}
	var lost, total float64
	for _, c := range h.b.clients {
		lost += c.LossRate()
		total++
	}
	res.LossRate = lost / total
	return res
}

// FoldState folds the cell's live state: engine, the whole network
// (switches, hosts, links), every client and server.
func (h *Harness) FoldState(d *checkpoint.Digest) {
	h.b.engine.FoldState(d)
	h.b.net.FoldState(d)
	d.Int(len(h.b.clients))
	for _, c := range h.b.clients {
		c.FoldState(d)
	}
	d.Int(len(h.b.servers))
	for _, s := range h.b.servers {
		s.FoldState(d)
	}
	if h.b.coll != nil {
		h.b.coll.FoldState(d)
	}
}

// Digest returns the state digest at the current instant.
func (h *Harness) Digest() uint64 {
	d := checkpoint.NewDigest()
	h.FoldState(d)
	return d.Sum()
}

// Save writes a replay-anchored checkpoint of the cell to w.
func (h *Harness) Save(w io.Writer) error {
	e := checkpoint.NewEncoder()
	encodeScenario(e, h.sc)
	return checkpoint.WriteHarness(w, CheckpointKind, e.Data(), int64(h.b.engine.Now()), h.Digest())
}

// Restore reads a checkpoint, rebuilds the cell and replays to the
// checkpointed instant, verifying the state digest.
func Restore(r io.Reader, tracer *telemetry.Tracer, registry *telemetry.Registry) (*Harness, error) {
	return RestoreWithCollector(r, tracer, registry, nil)
}

// RestoreWithCollector is Restore with an INT collector attachment:
// when the checkpointed scenario has INT enabled and coll is non-nil,
// the replay feeds coll (and anything chained on its OnSink — the SLO
// watchdog) instead of a private collector. coll must be empty; replay
// repopulates it from instant zero.
func RestoreWithCollector(r io.Reader, tracer *telemetry.Tracer, registry *telemetry.Registry, coll *intnet.Collector) (*Harness, error) {
	return checkpoint.Replay[sim.Time](r, CheckpointKind, decodeScenario,
		func(sc Scenario) (*Harness, error) {
			sc.Trace = tracer
			sc.Metrics = registry
			sc.Collector = coll
			return NewHarness(sc), nil
		})
}

// figure6Checkpointer persists completed Fig. 6 cells for resumable
// sweeps (see sweep.RunCells).
func figure6Checkpointer(path string) sweep.Checkpointer[Result] {
	return sweep.Checkpointer[Result]{
		Path: path,
		Kind: "figure6",
		Encode: func(e *checkpoint.Encoder, r Result) {
			e.Int(int(r.Kind))
			e.Str(r.App)
			e.Int(r.Clients)
			e.F64(r.MeanLatencyMS)
			e.F64(r.P99LatencyMS)
			e.F64(r.LossRate)
			e.U64(r.Requests)
		},
		Decode: func(d *checkpoint.Decoder) Result {
			return Result{
				Kind:          Kind(d.Int()),
				App:           d.Str(),
				Clients:       d.Int(),
				MeanLatencyMS: d.F64(),
				P99LatencyMS:  d.F64(),
				LossRate:      d.F64(),
				Requests:      d.U64(),
			}
		},
	}
}

func encodeScenario(e *checkpoint.Encoder, sc Scenario) {
	e.U64(sc.Seed)
	e.Int(int(sc.Kind))
	e.Int(sc.Clients)
	e.Str(sc.Profile.Name)
	e.Int(sc.Profile.FrameBytes)
	e.Int(sc.Profile.ResultBytes)
	e.I64(int64(sc.Profile.Period))
	e.I64(int64(sc.Profile.InferCPU))
	e.I64(int64(sc.Profile.Deadline))
	e.F64(sc.Profile.BaseAccuracy)
	e.F64(sc.Profile.CompressionSensitivity)
	e.F64(sc.Profile.LossSensitivity)
	e.F64(sc.Profile.JitterSensitivity)
	e.F64(sc.Deg.CompressionRatio)
	e.F64(sc.Deg.LossRate)
	e.I64(int64(sc.Deg.Jitter))
	e.I64(int64(sc.Horizon))
	e.Int(sc.ClientsPerServer)
	e.Bool(sc.PlacementOnly)
	e.Bool(sc.INT)
}

func decodeScenario(d *checkpoint.Decoder) Scenario {
	return Scenario{
		Seed:    d.U64(),
		Kind:    Kind(d.Int()),
		Clients: d.Int(),
		Profile: mlwork.Profile{
			Name:                   d.Str(),
			FrameBytes:             d.Int(),
			ResultBytes:            d.Int(),
			Period:                 time.Duration(d.I64()),
			InferCPU:               time.Duration(d.I64()),
			Deadline:               time.Duration(d.I64()),
			BaseAccuracy:           d.F64(),
			CompressionSensitivity: d.F64(),
			LossSensitivity:        d.F64(),
			JitterSensitivity:      d.F64(),
		},
		Deg: mlwork.Degradation{
			CompressionRatio: d.F64(),
			LossRate:         d.F64(),
			Jitter:           time.Duration(d.I64()),
		},
		Horizon:          time.Duration(d.I64()),
		ClientsPerServer: d.Int(),
		PlacementOnly:    d.Bool(),
		INT:              d.Bool(),
	}
}
