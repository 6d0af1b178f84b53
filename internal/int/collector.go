// Package intnet is the sink side of in-band network telemetry (INT):
// the Collector that terminates INT stacks (frame.INTStack) and folds
// them into per-path latency/jitter digests, the SLO Watchdog that
// evaluates declarative objectives against those observations, and the
// flight Recorder that keeps a bounded ring of recent trace events per
// component for post-mortem dumps.
//
// The package models the P4 INT sink role: sources and transits live in
// simnet/dataplane/tap; everything that *reads* the telemetry the
// network carried lives here. (The directory is internal/int; the
// package name is intnet because `int` would shadow the builtin.)
package intnet

import (
	"encoding/json"
	"io"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
)

// HopAgg aggregates one path position's per-hop records.
type HopAgg struct {
	// Node is the transit node at this position.
	Node string
	// Count is the number of frames that stamped this position.
	Count uint64
	// MinNS/MaxNS/SumNS aggregate the hop residence time.
	MinNS, MaxNS, SumNS int64
	// QueueMax is the deepest egress queue any frame saw here.
	QueueMax int32
	// DropRisk counts frames whose record carried the drop-risk flag.
	DropRisk uint64
}

// MeanNS is the mean hop residence time.
func (h *HopAgg) MeanNS() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNS) / float64(h.Count)
}

// PathDigest aggregates every INT stack that arrived at one sink from
// one source over one exact hop sequence. A flow that fails over to a
// different path produces a second digest — the split is the point: the
// collector sees path changes the way the data plane caused them.
type PathDigest struct {
	// Sink and Source name the terminating and originating nodes; Flow
	// is the source's flow id.
	Sink, Source string
	Flow         uint32
	// Hops lists the transit nodes in path order.
	Hops []string
	// Count is the number of frames folded in.
	Count uint64
	// MinNS/MaxNS/SumNS aggregate source→sink latency.
	MinNS, MaxNS, SumNS int64
	// JitterSumNS/JitterMaxNS aggregate |Δ| between consecutive frames'
	// latencies on this path (RFC 3550-style packet delay variation).
	JitterSumNS, JitterMaxNS int64
	// FirstAtNS/LastAtNS bracket the digest's observation window.
	FirstAtNS, LastAtNS int64
	// HopAggs aggregates per hop, aligned with Hops.
	HopAggs []HopAgg

	key       string // the collector's map key for the digest
	lastNS    int64  // previous frame's e2e latency
	hasJitter bool
}

// MeanNS is the mean end-to-end latency.
func (p *PathDigest) MeanNS() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.SumNS) / float64(p.Count)
}

// MeanJitterNS is the mean consecutive-frame delay variation.
func (p *PathDigest) MeanJitterNS() float64 {
	if p.Count < 2 {
		return 0
	}
	return float64(p.JitterSumNS) / float64(p.Count-1)
}

// PathChange records a flow arriving at a sink over a different hop
// sequence than its previous frame — the data-plane-visible signature
// of a failover. GapNS is the silence between the last frame on the old
// path and the first on the new one: observed failover latency.
type PathChange struct {
	Sink   string
	Flow   uint32
	From   string // previous path key ("" for a flow's first path)
	To     string
	AtNS   int64
	GapNS  int64
	AtSeq  uint32
	Silent uint32 // sequence numbers missing across the change
}

// Observation is the per-frame view the collector hands to OnSink
// subscribers (the SLO watchdog): one terminated stack, already folded.
type Observation struct {
	Sink, Source string
	Flow         uint32
	AtNS         int64
	// E2ENS is source→sink latency; JitterNS is |Δ| against the
	// previous frame on the same path (0 for a path's first frame).
	E2ENS    int64
	JitterNS int64
	// NewlyLost is how many sequence numbers this arrival exposed as
	// missing (0 when in order); DropRisk reports any hop flagged risk.
	NewlyLost uint64
	DropRisk  bool
	Path      *PathDigest
}

// flowKey identifies one flow at one sink.
type flowKey struct {
	sink string
	flow uint32
}

// flowState tracks per-flow sequence continuity and the current path:
// the digest of the path the flow's last frame took, which a frame on
// the same path finds without building the path key. It is a digest of
// the collector that holds the flow state.
type flowState struct {
	lastSeq   uint32
	lastAtNS  int64
	cur       *PathDigest
	received  uint64
	lost      uint64
	reordered uint64
}

// Collector terminates INT stacks. It satisfies simnet.INTSink and the
// dataplane's INTCollector structurally — one collector instance serves
// host sinks and data-plane sink actions alike. Not safe for concurrent
// use: like a Tracer it is engine-affine, and parallel sweeps give each
// cell a private collector merged afterwards with Absorb.
type Collector struct {
	paths map[string]*PathDigest
	order []*PathDigest // first-seen order, the deterministic export order
	flows map[flowKey]*flowState
	fkeys []flowKey // first-seen order
	// changes lists path changes in observation order.
	changes []PathChange
	// scratch builds path-map keys without allocating per lookup.
	scratch []byte

	// Observations counts terminated stacks.
	Observations uint64

	// OnSink, when set, sees every observation as it is folded — the
	// hook the SLO watchdog rides on.
	OnSink func(Observation)
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		paths: make(map[string]*PathDigest),
		flows: make(map[flowKey]*flowState),
	}
}

// pathKey builds the digest-map key for (sink, stack) into c.scratch.
// Map lookup via m[string(scratch)] does not allocate; only a genuinely
// new path pays for the string.
func (c *Collector) pathKey(sink string, st *frame.INTStack) []byte {
	b := c.scratch[:0]
	b = append(b, sink...)
	b = append(b, 0)
	b = append(b, byte(st.FlowID), byte(st.FlowID>>8), byte(st.FlowID>>16), byte(st.FlowID>>24))
	b = append(b, st.Source...)
	for _, h := range st.Hops {
		b = append(b, 0)
		b = append(b, h.Node...)
	}
	c.scratch = b
	return b
}

// onPath reports whether st, arriving on p's flow at p's sink, took p's
// path. A hop's node name is the stamping node's own string, as is the
// digest's copy of it, so equal names compare by pointer.
func (p *PathDigest) onPath(st *frame.INTStack) bool {
	if p.Source != st.Source || len(p.Hops) != len(st.Hops) {
		return false
	}
	for i := range st.Hops {
		if p.Hops[i] != st.Hops[i].Node {
			return false
		}
	}
	return true
}

// pathDigest returns the digest of st's path to sink, creating it for
// a first frame that took e2e and arrived at nowNS.
func (c *Collector) pathDigest(sink string, st *frame.INTStack, e2e, nowNS int64) *PathDigest {
	key := c.pathKey(sink, st)
	if p := c.paths[string(key)]; p != nil {
		return p
	}
	p := &PathDigest{
		Sink: sink, Source: st.Source, Flow: st.FlowID,
		MinNS: e2e, MaxNS: e2e, FirstAtNS: nowNS,
		Hops:    make([]string, len(st.Hops)),
		HopAggs: make([]HopAgg, len(st.Hops)),
		key:     string(key),
	}
	for i, h := range st.Hops {
		p.Hops[i] = h.Node
		p.HopAggs[i] = HopAgg{Node: h.Node, MinNS: h.HopLatencyNS(), MaxNS: h.HopLatencyNS()}
	}
	c.paths[p.key] = p
	c.order = append(c.order, p)
	return p
}

// SinkINT terminates f's INT stack at sink node at simulated time
// nowNS, folding it into the path digest and flow state. The caller
// strips the stack from the frame afterwards.
func (c *Collector) SinkINT(node string, f *frame.Frame, nowNS int64) {
	st := f.INT
	if st == nil {
		return
	}
	c.Observations++
	e2e := nowNS - st.SourceNS

	fk := flowKey{sink: node, flow: st.FlowID}
	fs := c.flows[fk]
	if fs == nil {
		fs = &flowState{}
		c.flows[fk] = fs
		c.fkeys = append(c.fkeys, fk)
	}
	p := fs.cur
	if p == nil || !p.onPath(st) {
		p = c.pathDigest(node, st, e2e, nowNS)
	}

	var jitter int64
	if p.hasJitter {
		jitter = e2e - p.lastNS
		if jitter < 0 {
			jitter = -jitter
		}
		p.JitterSumNS += jitter
		if jitter > p.JitterMaxNS {
			p.JitterMaxNS = jitter
		}
	}
	p.hasJitter = true
	p.lastNS = e2e
	p.Count++
	p.SumNS += e2e
	if e2e < p.MinNS {
		p.MinNS = e2e
	}
	if e2e > p.MaxNS {
		p.MaxNS = e2e
	}
	p.LastAtNS = nowNS

	dropRisk := false
	for i := range st.Hops {
		h := &st.Hops[i]
		a := &p.HopAggs[i]
		lat := h.HopLatencyNS()
		a.Count++
		a.SumNS += lat
		if lat < a.MinNS {
			a.MinNS = lat
		}
		if lat > a.MaxNS {
			a.MaxNS = lat
		}
		if h.QueueDepth > a.QueueMax {
			a.QueueMax = h.QueueDepth
		}
		if h.DropRisk {
			a.DropRisk++
			dropRisk = true
		}
	}

	prevSeq := fs.lastSeq
	var newlyLost uint64
	switch {
	case prevSeq != 0 && st.Seq > prevSeq+1:
		newlyLost = uint64(st.Seq - prevSeq - 1)
		fs.lost += newlyLost
		fs.lastSeq = st.Seq
	case prevSeq != 0 && st.Seq <= prevSeq:
		fs.reordered++
	default:
		fs.lastSeq = st.Seq
	}
	fs.received++
	if fs.cur != p {
		if fs.cur != nil {
			var silent uint32
			if st.Seq > prevSeq+1 {
				silent = st.Seq - prevSeq - 1
			}
			c.changes = append(c.changes, PathChange{
				Sink: node, Flow: st.FlowID, From: fs.cur.key, To: p.key,
				AtNS: nowNS, GapNS: nowNS - fs.lastAtNS, AtSeq: st.Seq, Silent: silent,
			})
		}
		fs.cur = p
	}
	fs.lastAtNS = nowNS

	if c.OnSink != nil {
		c.OnSink(Observation{
			Sink: node, Source: st.Source, Flow: st.FlowID, AtNS: nowNS,
			E2ENS: e2e, JitterNS: jitter, NewlyLost: newlyLost,
			DropRisk: dropRisk, Path: p,
		})
	}
}

// Digests returns the path digests in first-seen order. The slice is
// the collector's own; callers must not mutate it.
func (c *Collector) Digests() []*PathDigest { return c.order }

// PathChanges returns recorded path changes in observation order.
func (c *Collector) PathChanges() []PathChange { return c.changes }

// Absorb merges other's state into c: digests for paths c has not seen
// are appended in other's first-seen order, shared paths merge their
// aggregates, flow counters add, and path changes append. Parallel
// sweeps call Absorb in deterministic cell order, which keeps the merged
// export byte-identical regardless of worker count. Consecutive-frame
// jitter cannot be stitched across the merge boundary, so each cell's
// jitter aggregates simply add — exact for sweeps, where cells are
// disjoint simulations.
func (c *Collector) Absorb(other *Collector) {
	for _, op := range other.order {
		p := c.paths[op.key]
		if p == nil {
			cp := *op
			cp.Hops = append([]string(nil), op.Hops...)
			cp.HopAggs = append([]HopAgg(nil), op.HopAggs...)
			c.paths[op.key] = &cp
			c.order = append(c.order, &cp)
			continue
		}
		p.Count += op.Count
		p.SumNS += op.SumNS
		if op.MinNS < p.MinNS {
			p.MinNS = op.MinNS
		}
		if op.MaxNS > p.MaxNS {
			p.MaxNS = op.MaxNS
		}
		p.JitterSumNS += op.JitterSumNS
		if op.JitterMaxNS > p.JitterMaxNS {
			p.JitterMaxNS = op.JitterMaxNS
		}
		if op.FirstAtNS < p.FirstAtNS {
			p.FirstAtNS = op.FirstAtNS
		}
		if op.LastAtNS > p.LastAtNS {
			p.LastAtNS = op.LastAtNS
		}
		for i := range op.HopAggs {
			a, oa := &p.HopAggs[i], &op.HopAggs[i]
			a.Count += oa.Count
			a.SumNS += oa.SumNS
			if oa.MinNS < a.MinNS {
				a.MinNS = oa.MinNS
			}
			if oa.MaxNS > a.MaxNS {
				a.MaxNS = oa.MaxNS
			}
			if oa.QueueMax > a.QueueMax {
				a.QueueMax = oa.QueueMax
			}
			a.DropRisk += oa.DropRisk
		}
	}
	for _, fk := range other.fkeys {
		ofs := other.flows[fk]
		fs := c.flows[fk]
		if fs == nil {
			cp := *ofs
			cp.cur = c.paths[ofs.cur.key] // c's digest of the path, not other's
			c.flows[fk] = &cp
			c.fkeys = append(c.fkeys, fk)
			continue
		}
		fs.received += ofs.received
		fs.lost += ofs.lost
		fs.reordered += ofs.reordered
	}
	c.changes = append(c.changes, other.changes...)
	c.Observations += other.Observations
}

// FoldState folds the collector's digests (first-seen order), flow
// states (first-seen order) and path changes into a checkpoint digest,
// so resumed runs must reproduce the collector byte-for-byte.
func (c *Collector) FoldState(d *checkpoint.Digest) {
	d.U64(c.Observations)
	d.Int(len(c.order))
	for _, p := range c.order {
		d.Str(p.Sink)
		d.Str(p.Source)
		d.U64(uint64(p.Flow))
		d.Int(len(p.Hops))
		for i, h := range p.Hops {
			d.Str(h)
			a := &p.HopAggs[i]
			d.U64(a.Count)
			d.I64(a.MinNS)
			d.I64(a.MaxNS)
			d.I64(a.SumNS)
			d.I64(int64(a.QueueMax))
			d.U64(a.DropRisk)
		}
		d.U64(p.Count)
		d.I64(p.MinNS)
		d.I64(p.MaxNS)
		d.I64(p.SumNS)
		d.I64(p.JitterSumNS)
		d.I64(p.JitterMaxNS)
		d.I64(p.FirstAtNS)
		d.I64(p.LastAtNS)
		d.I64(p.lastNS)
		d.Bool(p.hasJitter)
	}
	d.Int(len(c.fkeys))
	for _, fk := range c.fkeys {
		fs := c.flows[fk]
		d.Str(fk.sink)
		d.U64(uint64(fk.flow))
		d.U64(uint64(fs.lastSeq))
		d.I64(fs.lastAtNS)
		d.Str(fs.cur.key)
		d.U64(fs.received)
		d.U64(fs.lost)
		d.U64(fs.reordered)
	}
	d.Int(len(c.changes))
	for _, ch := range c.changes {
		d.Str(ch.Sink)
		d.U64(uint64(ch.Flow))
		d.Str(ch.From)
		d.Str(ch.To)
		d.I64(ch.AtNS)
		d.I64(ch.GapNS)
		d.U64(uint64(ch.AtSeq))
		d.U64(uint64(ch.Silent))
	}
}

// jsonHop is the JSONL wire form of one hop's aggregate.
type jsonHop struct {
	Node     string `json:"node"`
	Count    uint64 `json:"count"`
	MinNS    int64  `json:"min_ns"`
	MaxNS    int64  `json:"max_ns"`
	SumNS    int64  `json:"sum_ns"`
	QueueMax int32  `json:"queue_max,omitempty"`
	DropRisk uint64 `json:"drop_risk,omitempty"`
}

// jsonPath is the JSONL wire form of one path digest.
type jsonPath struct {
	Type        string    `json:"type"` // "path"
	Sink        string    `json:"sink"`
	Source      string    `json:"source"`
	Flow        uint32    `json:"flow"`
	Count       uint64    `json:"count"`
	MinNS       int64     `json:"min_ns"`
	MaxNS       int64     `json:"max_ns"`
	SumNS       int64     `json:"sum_ns"`
	JitterSumNS int64     `json:"jitter_sum_ns"`
	JitterMaxNS int64     `json:"jitter_max_ns"`
	FirstAtNS   int64     `json:"first_at_ns"`
	LastAtNS    int64     `json:"last_at_ns"`
	Hops        []jsonHop `json:"hops"`
}

// jsonChange is the JSONL wire form of one path change.
type jsonChange struct {
	Type   string `json:"type"` // "path-change"
	Sink   string `json:"sink"`
	Flow   uint32 `json:"flow"`
	AtNS   int64  `json:"at_ns"`
	GapNS  int64  `json:"gap_ns"`
	AtSeq  uint32 `json:"at_seq"`
	Silent uint32 `json:"silent,omitempty"`
}

// jsonFlow is the JSONL wire form of one flow's loss counters.
type jsonFlow struct {
	Type      string `json:"type"` // "flow"
	Sink      string `json:"sink"`
	Flow      uint32 `json:"flow"`
	Received  uint64 `json:"received"`
	Lost      uint64 `json:"lost,omitempty"`
	Reordered uint64 `json:"reordered,omitempty"`
}

// WriteJSONL exports the collector as JSON lines: path digests in
// first-seen order, then path changes in observation order, then flow
// loss counters in first-seen order. The output is deterministic, which
// is what lets the resume-equivalence test demand byte identity.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, p := range c.order {
		jp := jsonPath{
			Type: "path", Sink: p.Sink, Source: p.Source, Flow: p.Flow,
			Count: p.Count, MinNS: p.MinNS, MaxNS: p.MaxNS, SumNS: p.SumNS,
			JitterSumNS: p.JitterSumNS, JitterMaxNS: p.JitterMaxNS,
			FirstAtNS: p.FirstAtNS, LastAtNS: p.LastAtNS,
			Hops: make([]jsonHop, len(p.HopAggs)),
		}
		for i := range p.HopAggs {
			a := &p.HopAggs[i]
			jp.Hops[i] = jsonHop{
				Node: a.Node, Count: a.Count, MinNS: a.MinNS, MaxNS: a.MaxNS,
				SumNS: a.SumNS, QueueMax: a.QueueMax, DropRisk: a.DropRisk,
			}
		}
		if err := enc.Encode(jp); err != nil {
			return err
		}
	}
	for _, ch := range c.changes {
		if err := enc.Encode(jsonChange{
			Type: "path-change", Sink: ch.Sink, Flow: ch.Flow,
			AtNS: ch.AtNS, GapNS: ch.GapNS, AtSeq: ch.AtSeq, Silent: ch.Silent,
		}); err != nil {
			return err
		}
	}
	for _, fk := range c.fkeys {
		fs := c.flows[fk]
		if err := enc.Encode(jsonFlow{
			Type: "flow", Sink: fk.sink, Flow: fk.flow,
			Received: fs.received, Lost: fs.lost, Reordered: fs.reordered,
		}); err != nil {
			return err
		}
	}
	return nil
}
