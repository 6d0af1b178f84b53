package mltopo

import (
	"fmt"
	"io"
	"math"

	"steelnet/internal/checkpoint"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/topo"
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
// instantiated and every client's first request is scheduled. It
// panics on a scenario no cell can be built from.
func NewHarness(sc Scenario) *Harness {
	h, err := newHarness(sc)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// newHarness is NewHarness returning an error for a scenario no cell
// can be built from.
func newHarness(sc Scenario) (*Harness, error) {
	switch {
	case sc.Clients < 1:
		return nil, fmt.Errorf("mltopo: need at least one client, have %d", sc.Clients)
	case sc.Kind != LeafSpine && sc.Kind != Ring && sc.Kind != MLAware:
		return nil, fmt.Errorf("mltopo: unknown kind %d", sc.Kind)
	case sc.Profile.Period <= 0:
		return nil, fmt.Errorf("mltopo: non-positive request period %v", sc.Profile.Period)
	case sc.Profile.InferCPU < 0:
		return nil, fmt.Errorf("mltopo: negative inference time %v", sc.Profile.InferCPU)
	case sc.Profile.ResultBytes < 0 || sc.Profile.ResultBytes > math.MaxUint32:
		// A response body is one frame's zero tail, a uint32 count.
		return nil, fmt.Errorf("mltopo: inference result of %d bytes, want 0 to %d", sc.Profile.ResultBytes, uint32(math.MaxUint32))
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
	}
	for i := range pl.g.NumNodes() {
		n := topo.NodeID(i)
		if d := pl.g.Degree(n); d > simnet.MaxSwitchPorts && pl.g.Node(n).Kind == topo.KindSwitch {
			return nil, fmt.Errorf("mltopo: %s needs %d ports, at most %d", pl.g.Node(n).Name, d, simnet.MaxSwitchPorts)
		}
	}
	e := sim.NewEngine(sc.Seed)
	b := instantiate(e, simnet.Build(e, pl.g, simnet.DefaultSwitchConfig), sc, pl)
	// Desynchronize clients across the period, as independent cameras
	// would be.
	rng := b.engine.RNG("phase")
	for _, c := range b.clients {
		c.Start(sim.Time(rng.DurationRange(0, sc.Profile.Period)))
	}
	return &Harness{sc: sc, b: b}, nil
}

// Engine returns the harness's engine.
func (h *Harness) Engine() *sim.Engine { return h.b.engine }

// Horizon returns the configured end of the run.
func (h *Harness) Horizon() sim.Time { return sim.Time(h.sc.Horizon) }

// AdvanceTo runs the cell up to instant t.
func (h *Harness) AdvanceTo(t sim.Time) { h.b.engine.RunUntil(t) }

// Result collects the cell's measurements at the current instant. It is
// non-destructive: the harness can keep advancing afterwards.
func (h *Harness) Result() Result {
	n := 0
	for _, c := range h.b.clients {
		n += c.Latencies.Len()
	}
	lat := metrics.NewSeries(n)
	var completed uint64
	for _, c := range h.b.clients {
		for v := range c.Latencies.All() {
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
// No command checkpoints a single cell yet; ROADMAP.md plans to.
func (h *Harness) Save(w io.Writer) error {
	config := checkpoint.Encode(WalkScenario, &h.sc)
	return checkpoint.WriteHarness(w, CheckpointKind, config, int64(h.b.engine.Now()), h.Digest())
}

// Restore reads a checkpoint, rebuilds the cell with the given
// telemetry sinks and replays to the checkpointed instant, verifying
// the state digest. A collector handed in must be empty: the replay
// feeds it, and anything chained on its OnSink, from instant zero. A
// recorded scenario no cell can be built from is an error.
// No command checkpoints a single cell yet; ROADMAP.md plans to.
func Restore(r io.Reader, sinks sweep.Sinks) (*Harness, error) {
	return checkpoint.Replay[sim.Time](r, CheckpointKind, WalkScenario,
		func(sc Scenario) (*Harness, error) {
			sc.Sinks = sinks
			return newHarness(sc)
		})
}

// WalkResult is what a resumable Fig. 6 sweep records of a completed
// cell.
func WalkResult(c *checkpoint.Codec, r *Result) {
	checkpoint.Int(c, &r.Kind)
	c.Str(&r.App)
	checkpoint.Int(c, &r.Clients)
	c.F64(&r.MeanLatencyMS)
	c.F64(&r.P99LatencyMS)
	c.F64(&r.LossRate)
	checkpoint.Int(c, &r.Requests)
}

// WalkScenario is the field list of a cell checkpoint's "config" section
// (the sinks are supplied fresh at Restore).
func WalkScenario(c *checkpoint.Codec, sc *Scenario) {
	checkpoint.Int(c, &sc.Seed)
	checkpoint.Int(c, &sc.Kind)
	checkpoint.Int(c, &sc.Clients)
	c.Str(&sc.Profile.Name)
	checkpoint.Int(c, &sc.Profile.FrameBytes)
	checkpoint.Int(c, &sc.Profile.ResultBytes)
	checkpoint.Int(c, &sc.Profile.Period)
	checkpoint.Int(c, &sc.Profile.InferCPU)
	checkpoint.Int(c, &sc.Profile.Deadline)
	c.F64(&sc.Profile.BaseAccuracy)
	c.F64(&sc.Profile.CompressionSensitivity)
	c.F64(&sc.Profile.LossSensitivity)
	c.F64(&sc.Profile.JitterSensitivity)
	c.F64(&sc.Deg.CompressionRatio)
	c.F64(&sc.Deg.LossRate)
	checkpoint.Int(c, &sc.Deg.Jitter)
	checkpoint.Int(c, &sc.Horizon)
	checkpoint.Int(c, &sc.ClientsPerServer)
	c.Bool(&sc.PlacementOnly)
	c.Bool(&sc.INT)
}
