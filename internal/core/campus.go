package core

import (
	"fmt"
	"math"
	"strconv"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/telemetry"
	"steelnet/internal/topo"
)

// CampusConfig parameterizes the campus-scale sharded experiment: a
// spine-plus-cells plant network (topo.Campus) partitioned one shard
// per cell, with periodic intra-cell and cross-cell host traffic, and
// optional in-band telemetry plus an SLO watchdog per shard.
//
// Workers, Profile, Trace and Metrics are observational: they never
// change an output byte. Everything else is the scenario.
type CampusConfig struct {
	Seed uint64
	// Topo sizes the campus (zero values select topo.Campus defaults).
	// HostsPerSwitch has no usable default: it must be at least 1.
	Topo topo.CampusConfig
	// Horizon is the experiment length (default 5 ms).
	Horizon sim.Duration
	// Period is each host's send period (default 100 µs). Senders stop
	// ten periods before the horizon so in-flight traffic drains.
	Period sim.Duration
	// CrossEvery makes every Nth host (in global host order) send to the
	// next cell instead of its in-cell neighbor (default 4; cross-cell
	// traffic is what exercises the backbone and the shard barriers).
	CrossEvery int
	// FrameBytes is the payload size (default 128).
	FrameBytes int
	// QueueDepth overrides the per-class switch queue depth (0 keeps the
	// equipment default).
	QueueDepth int
	// INT attaches telemetry stacks to cross-cell traffic and collects
	// them per shard.
	INT bool
	// SLO is an intnet objective plan evaluated per shard (requires INT;
	// "" disables the watchdogs).
	SLO string
	// Workers is the goroutine count for window execution (default 1).
	Workers int

	// Profile arms the shard group's coordinator profiler (barrier
	// waits, window occupancy, outbox volume — see sim.ShardProfile).
	Profile bool
	// Trace attaches one frame-lifecycle tracer per shard, each in its
	// own disjoint id space, so MergedTrace can stitch cross-shard
	// frame timelines.
	Trace bool
	// Metrics, when non-nil, receives the group's and the campus's
	// metric families at build time.
	Metrics *telemetry.Registry
}

func normalizeCampusConfig(cfg CampusConfig) CampusConfig {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 5 * sim.Millisecond
	}
	if cfg.Period <= 0 {
		cfg.Period = 100 * sim.Microsecond
	}
	if cfg.CrossEvery <= 0 {
		cfg.CrossEvery = 4
	}
	if cfg.FrameBytes <= 0 {
		cfg.FrameBytes = 128
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// CampusHarness is a running campus experiment: the generated topology
// instantiated across a shard group, traffic sources armed, and
// per-shard telemetry attached. Per-shard frame pools, INT collectors
// and SLO watchdogs keep every mutable structure single-writer during a
// window; merged views (MergedCollector, Result) combine them in fixed
// shard order, so they are deterministic for any worker count.
type CampusHarness struct {
	cfg CampusConfig
	ct  *topo.CampusTopo
	net *simnet.Network

	pools   []*frame.Pool
	stopAt  sim.Time // the last instant a sender sends
	colls   []*intnet.Collector
	dogs    []*intnet.Watchdog
	tracers []*telemetry.Tracer
	plan    intnet.SLOPlan
}

// maxCampusNodes bounds a campus's switches and hosts together, checked
// before anything is allocated. A build takes about 1.3 KB a node
// (BenchmarkCampus10kBuild is 26.7 MB for campus_10k's 20,036 nodes),
// so a campus at the bound builds in about 1.4 GB; campus_10k is a
// fiftieth of it.
const maxCampusNodes = 1 << 20

// NewCampusHarness builds and arms the experiment. A campus whose
// backbone has zero propagation delay cannot be sharded conservatively:
// it is refused with an error that wraps sim.ErrZeroLookahead.
func NewCampusHarness(cfg CampusConfig) (*CampusHarness, error) {
	cfg = normalizeCampusConfig(cfg)
	plan, err := intnet.ParseSLOPlan(cfg.SLO)
	if err != nil {
		return nil, err
	}
	if len(plan) > 0 && !cfg.INT {
		return nil, fmt.Errorf("core: campus SLO plan %q needs INT enabled", cfg.SLO)
	}
	if cfg.Topo.HostsPerSwitch < 1 {
		return nil, fmt.Errorf("core: campus with %d hosts per switch carries no traffic, want at least 1", cfg.Topo.HostsPerSwitch)
	}
	if d := cfg.Topo.MaxSwitchDegree(); d > simnet.MaxSwitchPorts {
		return nil, fmt.Errorf("core: campus needs a switch with %d ports, at most %d", d, simnet.MaxSwitchPorts)
	}
	if !cfg.Topo.NodesAtMost(maxCampusNodes) {
		t := cfg.Topo
		return nil, fmt.Errorf("core: campus of %d cells × %d switches × (1 + %d hosts) + %d spines exceeds %d nodes",
			t.Cells, t.SwitchesPerCell, t.HostsPerSwitch, t.Spines, maxCampusNodes)
	}
	if int64(cfg.FrameBytes) > math.MaxUint32 {
		return nil, fmt.Errorf("core: campus payload of %d bytes, at most %d", cfg.FrameBytes, uint32(math.MaxUint32))
	}
	ct := topo.Campus(cfg.Topo)
	cfg.Topo = ct.Cfg // generator defaults become part of the scenario
	net, err := simnet.NewSharded(cfg.Seed, ct.Graph, ct.Partition(), simnet.DefaultSwitchConfig)
	if err != nil {
		return nil, err
	}
	h := &CampusHarness{cfg: cfg, ct: ct, net: net, plan: plan}
	if cfg.QueueDepth > 0 {
		net.SetSwitchQueueDepth(cfg.QueueDepth)
	}
	shards := net.Group.Shards()
	h.pools = make([]*frame.Pool, shards)
	h.colls = make([]*intnet.Collector, shards)
	h.dogs = make([]*intnet.Watchdog, shards)
	for s := 0; s < shards; s++ {
		h.pools[s] = &frame.Pool{}
		if cfg.INT {
			h.colls[s] = intnet.NewCollector()
			if len(plan) > 0 {
				h.dogs[s] = intnet.NewWatchdog(plan, nil)
				h.dogs[s].Attach(h.colls[s])
			}
		}
	}
	if cfg.Profile {
		net.Group.EnableProfiling()
	}
	if cfg.Trace {
		h.tracers = make([]*telemetry.Tracer, shards)
		for s := 0; s < shards; s++ {
			tr := telemetry.NewTracer(nil)
			tr.SetIDSpace(s)
			net.SetTracer(s, tr)
			h.tracers[s] = tr
		}
	}
	h.installRoutes()
	h.armTraffic()
	h.registerMetrics(cfg.Metrics)
	return h, nil
}

// installRoutes programs every FIB constructively — no shortest-path
// solve, just the campus's known structure:
//
//   - each switch gets static entries for hosts in its own subtree
//     (installed by walking each host's ancestor chain),
//   - non-gateway switches default to their parent port, gateways
//     default to one spine, so unknown MACs always climb out,
//   - spines hold full per-cell host tables pointing at the gateways.
//
// The cost is O(hosts · tree depth + spines · hosts) entries, which
// keeps a 10k-switch campus buildable in well under a second. Every FIB
// is sized once, before any entry goes in, for the hosts it will hold —
// its subtree's for a cell switch, every host for a spine — and all of
// them are cut from one slab.
func (h *CampusHarness) installRoutes() {
	cfg := h.cfg.Topo
	g := h.ct.Graph
	// subtree[i] counts the hosts below switch i of a cell (every cell has
	// the same tree), itself included.
	subtree := make([]int, cfg.SwitchesPerCell)
	for i := len(subtree) - 1; i >= 0; i-- {
		subtree[i] += cfg.HostsPerSwitch
		if i > 0 {
			subtree[(i-1)/cfg.Fanout] += subtree[i]
		}
	}
	simnet.ReserveFIBs(func(yield func(*simnet.Switch, int) bool) {
		for _, sp := range h.ct.Spines {
			if !yield(h.net.Switch(sp), len(h.ct.CellHosts)*len(h.ct.CellHosts[0])) {
				return
			}
		}
		for _, sw := range h.ct.CellSwitches {
			for i, id := range sw {
				if !yield(h.net.Switch(id), subtree[i]) {
					return
				}
			}
		}
	})
	// Campus graphs are simple (at most one edge per pair), so the first
	// incident edge reaching next is the edge.
	portToward := func(at, next topo.NodeID) int {
		for _, eid := range g.Incident(at) {
			if g.Edge(eid).Other(at) == next {
				return h.net.PortIndex(at, eid)
			}
		}
		panic(fmt.Sprintf("core: campus has no edge %d--%d", at, next))
	}
	for c := range h.ct.CellSwitches {
		sw := h.ct.CellSwitches[c]
		// Defaults up the tree, gateway out to its home spine.
		for i := 1; i < len(sw); i++ {
			parent := sw[(i-1)/cfg.Fanout]
			h.net.Switch(sw[i]).SetDefaultPort(portToward(sw[i], parent))
		}
		spine := h.ct.Spines[c%len(h.ct.Spines)]
		h.net.Switch(sw[0]).SetDefaultPort(portToward(sw[0], spine))
		// Host entries down the tree: every ancestor of host j's switch
		// learns the port toward j.
		for j, id := range h.ct.CellHosts[c] {
			mac := h.net.Host(id).MAC()
			i := j / cfg.HostsPerSwitch
			h.net.Switch(sw[i]).AddStatic(mac, portToward(sw[i], id))
			for i != 0 {
				parent := (i - 1) / cfg.Fanout
				h.net.Switch(sw[parent]).AddStatic(mac, portToward(sw[parent], sw[i]))
				i = parent
			}
		}
		// Spines: full host tables for this cell, out the gateway port.
		for _, sp := range h.ct.Spines {
			port := portToward(sp, sw[0])
			for _, id := range h.ct.CellHosts[c] {
				h.net.Switch(sp).AddStatic(h.net.Host(id).MAC(), port)
			}
		}
	}
}

// campusSender is one host's periodic source, as the sim.Handler of its
// own ticks; a campus cuts its senders from one slab. Each tick sends a
// frame while the clock is at or before stopAt, then schedules the next
// tick. Ticks go on past stopAt, sending nothing, so the engines'
// sequence counters and fire counts, which the campus digest folds, are
// those of a ticker that runs to the horizon.
type campusSender struct {
	h   *CampusHarness
	src *simnet.Host
	dst frame.MAC
}

func (s *campusSender) Fire() {
	eng := s.src.Engine()
	if eng.Now() <= s.h.stopAt {
		// The payload is never written: it rides as a zero tail.
		pool := s.src.Pool()
		f := pool.Get(0)
		f.ZeroTail = uint32(s.h.cfg.FrameBytes)
		f.Dst = s.dst
		if !s.src.Send(f) {
			pool.Put(f)
		}
	}
	eng.After(s.h.cfg.Period, s)
}

// armTraffic wires pools, telemetry roles, drop reclaim and the
// periodic senders. Sends stop ten periods before the horizon so the
// final state is fully drained (pools balance, CrossWire reaches zero).
func (h *CampusHarness) armTraffic() {
	cfg := h.cfg
	part := h.net.Part
	// Switch ports belong to no pooled component, so their drops are
	// wired here; each host's UsePool below covers its own port.
	for id, s := range part.Of {
		if h.net.Graph.Node(topo.NodeID(id)).Kind != topo.KindSwitch {
			continue
		}
		sw := h.net.Switch(topo.NodeID(id))
		for i := range sw.NumPorts() {
			sw.Port(i).OnDrop = h.pools[s].PutFunc()
		}
	}
	stopAt := cfg.Horizon - 10*cfg.Period
	if stopAt <= 0 {
		stopAt = cfg.Horizon / 2
	}
	h.stopAt = sim.Time(0).Add(stopAt)
	hostsPerCell := len(h.ct.CellHosts[0])
	totalHosts := hostsPerCell * len(h.ct.CellHosts)
	senders := make([]campusSender, 0, totalHosts) // never grows: the engines hold its addresses
	gi := 0
	for c := range h.ct.CellHosts {
		for k, id := range h.ct.CellHosts[c] {
			shard := part.Of[id]
			src := h.net.Host(id)
			src.UsePool(h.pools[shard])
			src.OnReceive(h.pools[shard].PutFunc())
			if cfg.INT {
				src.SetINTSink(h.colls[shard])
			}
			cross := cfg.CrossEvery > 0 && gi%cfg.CrossEvery == 0 && len(h.ct.CellHosts) > 1
			var dstID topo.NodeID
			if cross {
				dstID = h.ct.CellHosts[(c+1)%len(h.ct.CellHosts)][k]
				if cfg.INT {
					src.SetINTSource(uint32(gi), 8, false)
				}
			} else {
				dstID = h.ct.CellHosts[c][(k+1)%hostsPerCell]
			}
			if dstID == id {
				gi++
				continue // single-host campus: nothing to talk to
			}
			senders = append(senders, campusSender{h: h, src: src, dst: h.net.Host(dstID).MAC()})
			start := sim.Duration(1) + sim.Duration(gi)*cfg.Period/sim.Duration(totalHosts+1)
			src.Engine().Schedule(sim.Time(0).Add(start), &senders[len(senders)-1])
			gi++
		}
	}
}

// Network exposes the equipment and its shard group.
func (h *CampusHarness) Network() *simnet.Network { return h.net }

// Config returns the normalized configuration.
func (h *CampusHarness) Config() CampusConfig { return h.cfg }

// Now returns the group's barrier floor.
func (h *CampusHarness) Now() sim.Time { return h.net.Group.Now() }

// Horizon returns the configured end instant.
func (h *CampusHarness) Horizon() sim.Time { return sim.Time(0).Add(h.cfg.Horizon) }

// AdvanceTo runs the experiment to t using the configured worker count.
// Advancing in several steps is byte-identical to one straight run: the
// shard group's window grid is anchored to event content, never to the
// caller's deadlines.
func (h *CampusHarness) AdvanceTo(t sim.Time) {
	h.net.Group.Run(t, h.cfg.Workers)
}

// Run advances to the configured horizon.
func (h *CampusHarness) Run() { h.AdvanceTo(sim.Time(0).Add(h.cfg.Horizon)) }

// MergedCollector combines the per-shard INT collectors in fixed shard
// order (nil without INT). The merge is non-destructive and
// deterministic for any worker count.
func (h *CampusHarness) MergedCollector() *intnet.Collector {
	if !h.cfg.INT {
		return nil
	}
	m := intnet.NewCollector()
	for _, c := range h.colls {
		m.Absorb(c)
	}
	return m
}

// MergedWatchdog combines the per-shard SLO watchdogs in fixed shard
// order (nil without a plan). Sinks are per-shard, so the states are
// disjoint by construction.
func (h *CampusHarness) MergedWatchdog() *intnet.Watchdog {
	if len(h.plan) == 0 || !h.cfg.INT {
		return nil
	}
	m := intnet.NewWatchdog(h.plan, nil)
	for _, w := range h.dogs {
		if w != nil {
			m.Absorb(w)
		}
	}
	return m
}

// registerMetrics exposes the group's coordinator/lane families plus
// campus-level traffic and telemetry totals on r. Func-backed: reads
// happen at snapshot time, which must be a simulation safe point (the
// same discipline as every merged view).
func (h *CampusHarness) registerMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	telemetry.RegisterShardGroupMetrics(r, h.net.Group)
	for c := range h.ct.CellHosts {
		lbl := telemetry.L("cell", strconv.Itoa(c))
		hosts := h.ct.CellHosts[c]
		r.Counter("campus_cell_tx_frames_total", lbl, "frames sent by the cell's hosts", func() uint64 {
			var n uint64
			for _, id := range hosts {
				n += h.net.Host(id).Port().TxFrames
			}
			return n
		})
		r.Counter("campus_cell_rx_frames_total", lbl, "frames received by the cell's hosts", func() uint64 {
			var n uint64
			for _, id := range hosts {
				n += h.net.Host(id).Port().RxFrames
			}
			return n
		})
	}
	r.Counter("campus_int_observations_total", nil, "INT observations folded by the per-shard collectors", func() uint64 {
		var n uint64
		for _, coll := range h.colls {
			if coll != nil {
				n += coll.Observations
			}
		}
		return n
	})
	r.Counter("campus_slo_breaches_total", nil, "SLO breaches recorded by the per-shard watchdogs", func() uint64 {
		var n uint64
		for _, dog := range h.dogs {
			if dog != nil {
				n += uint64(len(dog.Breaches()))
			}
		}
		return n
	})
	r.Gauge("campus_crosswire_inflight", nil, "frames in flight across shard boundaries", func() float64 {
		return float64(h.net.Account().CrossWire)
	})
}

// ShardProfile returns the group's execution profile snapshot (lanes
// populated only when CampusConfig.Profile was set).
func (h *CampusHarness) ShardProfile() sim.ShardProfile { return h.net.Group.Profile() }

// MergedTrace stitches the per-shard frame timelines — and, when
// profiling, the window/barrier spans — into one causal event stream
// ordered by (T, shard). Frame ids are preserved (disjoint per-shard id
// spaces), so a cross-cell frame's HostTx, forwards, cross-shard hop and
// delivery form one lifecycle under one id. Deterministic for any
// worker count; nil without Trace.
func (h *CampusHarness) MergedTrace() []telemetry.Event {
	if h.tracers == nil {
		return nil
	}
	streams := make([][]telemetry.Event, 0, len(h.tracers)+1)
	for _, tr := range h.tracers {
		streams = append(streams, tr.Events())
	}
	if h.net.Group.ProfilingEnabled() {
		streams = append(streams, telemetry.ShardWindowEvents(h.net.Group.WindowLog()))
	}
	return telemetry.MergeShardEvents(streams...)
}

// RenderShardProfile renders the profile as the per-shard table the
// campus CLI prints with -stats. Wall-clock columns (busy, barrier-wait)
// are diagnostics and vary run to run; everything else is deterministic.
func RenderShardProfile(p sim.ShardProfile) string {
	t := metrics.NewTable(
		fmt.Sprintf("shard profile: %d shards, %d windows (%d skipped), %d msgs, merge high-water %d, imbalance %.2f",
			p.Shards, p.Windows, p.Skipped, p.Messages, p.MergeHighWater, p.Imbalance),
		"shard", "events", "ev/chunk", "occupancy", "busy µs", "barrier-wait µs", "wait share", "outbox msgs")
	for _, ln := range p.PerShard {
		var evPerChunk, occ float64
		if ln.ActiveChunks > 0 {
			evPerChunk = float64(ln.Events) / float64(ln.ActiveChunks)
			if p.LookaheadNS > 0 {
				occ = float64(ln.OccupiedNS) / (float64(ln.ActiveChunks) * float64(p.LookaheadNS))
			}
		}
		var waitShare float64
		if tot := ln.BusyNS + ln.BarrierWaitNS; tot > 0 {
			waitShare = float64(ln.BarrierWaitNS) / float64(tot)
		}
		t.AddRowf("%d\t%d\t%.1f\t%.0f%%\t%.0f\t%.0f\t%.0f%%\t%d",
			ln.Shard, ln.Events, evPerChunk, occ*100,
			float64(ln.BusyNS)/1e3, float64(ln.BarrierWaitNS)/1e3, waitShare*100,
			ln.OutboxMsgs)
	}
	s := t.String()
	if p.WindowsDropped > 0 {
		s += fmt.Sprintf("NOTE: window log capped; %d windows not logged (lanes above remain exact)\n", p.WindowsDropped)
	}
	return s
}

// CampusCellStats is one cell's traffic summary.
type CampusCellStats struct {
	Cell            int
	TxFrames        uint64
	RxFrames        uint64
	INTObservations uint64
	Breaches        int
}

// CampusResult summarizes a campus run.
type CampusResult struct {
	Cells       int
	Switches    int
	Hosts       int
	Shards      int
	LookaheadNS int64
	Group       sim.ShardGroupStats
	PerCell     []CampusCellStats
	Accounting  simnet.Accounting
	// INTObservations and Breaches are whole-campus totals.
	INTObservations uint64
	Breaches        int
}

// Result summarizes the run so far. It is non-destructive: per-cell
// rows come from host port counters and the per-shard telemetry, merged
// in fixed shard order.
func (h *CampusHarness) Result() CampusResult {
	cfg := h.cfg.Topo
	res := CampusResult{
		Cells:       cfg.Cells,
		Switches:    cfg.Cells*cfg.SwitchesPerCell + cfg.Spines,
		Hosts:       cfg.Cells * cfg.SwitchesPerCell * cfg.HostsPerSwitch,
		Shards:      h.net.Group.Shards(),
		LookaheadNS: int64(h.net.Group.Lookahead()),
		Group:       h.net.Group.Stats(),
		Accounting:  h.net.Account(),
	}
	for c := range h.ct.CellHosts {
		cs := CampusCellStats{Cell: c}
		for _, id := range h.ct.CellHosts[c] {
			p := h.net.Host(id).Port()
			cs.TxFrames += p.TxFrames
			cs.RxFrames += p.RxFrames
		}
		if coll := h.colls[c+1]; coll != nil {
			cs.INTObservations = coll.Observations
		}
		if dog := h.dogs[c+1]; dog != nil {
			cs.Breaches = len(dog.Breaches())
		}
		res.PerCell = append(res.PerCell, cs)
	}
	for _, coll := range h.colls {
		if coll != nil {
			res.INTObservations += coll.Observations
		}
	}
	for _, dog := range h.dogs {
		if dog != nil {
			res.Breaches += len(dog.Breaches())
		}
	}
	return res
}

// RenderCampus renders the result as the campus experiment table.
func RenderCampus(res CampusResult) string {
	t := metrics.NewTable(
		fmt.Sprintf("campus: %d cells, %d switches, %d hosts on %d shards (lookahead %d ns)",
			res.Cells, res.Switches, res.Hosts, res.Shards, res.LookaheadNS),
		"cell", "tx frames", "rx frames", "int obs", "slo breaches")
	for _, cs := range res.PerCell {
		t.AddRowf("%d\t%d\t%d\t%d\t%d",
			cs.Cell, cs.TxFrames, cs.RxFrames, cs.INTObservations, cs.Breaches)
	}
	s := t.String()
	s += fmt.Sprintf("windows=%d skipped=%d cross-shard msgs=%d delivered=%d\n",
		res.Group.Windows, res.Group.Skipped, res.Group.Messages, res.Accounting.Delivered)
	return s
}

// FoldState folds the full experiment state: the shard group (window
// clock plus every engine), the equipment, and the per-shard telemetry
// in fixed shard order.
func (h *CampusHarness) FoldState(d *checkpoint.Digest) {
	h.net.Group.FoldState(d)
	h.net.FoldState(d)
	d.Str(h.plan.String())
	for s := 0; s < h.net.Group.Shards(); s++ {
		hasColl := h.colls[s] != nil
		d.Bool(hasColl)
		if hasColl {
			h.colls[s].FoldState(d)
		}
		hasDog := h.dogs[s] != nil
		d.Bool(hasDog)
		if hasDog {
			h.dogs[s].FoldState(d)
		}
	}
}

// Digest returns the state digest at the current instant.
func (h *CampusHarness) Digest() uint64 {
	d := checkpoint.NewDigest()
	h.FoldState(d)
	return d.Sum()
}
