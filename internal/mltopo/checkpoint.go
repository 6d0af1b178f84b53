package mltopo

import (
	"fmt"
	"math"

	"steelnet/internal/checkpoint"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// Harness is one Fig. 6 cell in steps: topology built, clients
// started, advanced to any instant.
type Harness struct {
	sc Scenario
	b  built
}

// maxClients bounds a cell's cameras, eight times the paper's largest
// cell. A build grows with the square of its clients, since every
// switch routes to every host: at the bound a Ring cell builds in about
// 74 MB and 8 s, a tree-shaped one in about 14 MB, where a Ring cell
// of 256 clients takes 2 MB (linux/amd64, 2 vCPUs). The bound also
// keeps every switch under simnet.MaxSwitchPorts: the widest carries
// one server per client (ClientsPerServer 1) beside at most 18 other
// links.
const maxClients = 1 << 11

const _ = uint(simnet.MaxSwitchPorts - 18 - maxClients) // fails to compile past the port bound

// checkScenario refuses a scenario no cell can be built from, before
// anything is built.
func checkScenario(sc Scenario) error {
	switch {
	case sc.Clients < 1 || sc.Clients > maxClients:
		return fmt.Errorf("mltopo: %d clients, want 1 to %d", sc.Clients, maxClients)
	case sc.Kind != LeafSpine && sc.Kind != Ring && sc.Kind != MLAware:
		return fmt.Errorf("mltopo: unknown kind %d", sc.Kind)
	case sc.Profile.Period <= 0:
		return fmt.Errorf("mltopo: non-positive request period %v", sc.Profile.Period)
	case sc.Profile.InferCPU < 0:
		return fmt.Errorf("mltopo: negative inference time %v", sc.Profile.InferCPU)
	case sc.Profile.ResultBytes < 0 || sc.Profile.ResultBytes > math.MaxUint32:
		// A response body is one frame's zero tail, a uint32 count.
		return fmt.Errorf("mltopo: inference result of %d bytes, want 0 to %d", sc.Profile.ResultBytes, uint32(math.MaxUint32))
	}
	return nil
}

// NewHarness builds one cell without running it: the topology is
// instantiated and every client's first request is scheduled. It
// panics on a scenario no cell can be built from; the sweep runs
// checkScenario first and returns the error instead.
func NewHarness(sc Scenario) *Harness {
	if err := checkScenario(sc); err != nil {
		panic(err.Error())
	}
	if sc.ClientsPerServer < 1 {
		sc.ClientsPerServer = 16
	}
	if sc.Deg.CompressionRatio < 1 {
		sc.Deg.CompressionRatio = 1
	}
	return newHarness(sc, newPlant(sc))
}

// newHarness builds the cell of sc, checked and defaulted, on pl, a
// plant designed for it or for a scenario that shares its design.
func newHarness(sc Scenario, pl plant) *Harness {
	b := instantiate(sim.NewEngine(sc.Seed), sc, pl)
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
