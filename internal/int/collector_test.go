package intnet

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
)

// sinkFrame builds a frame carrying an INT stack with the given hop
// records and sinks it, the way a host or pipeline sink action would.
func sinkFrame(c *Collector, sink, source string, flow, seq uint32, srcNS, nowNS int64, hops ...frame.INTHop) {
	f := &frame.Frame{}
	st := f.AttachINT(source, flow, seq, srcNS, 0)
	for _, h := range hops {
		st.PushHop(h)
	}
	c.SinkINT(sink, f, nowNS)
	f.INT = nil
}

func TestCollectorPathDigest(t *testing.T) {
	c := NewCollector()
	hop := func(in, out int64) frame.INTHop {
		return frame.INTHop{Node: "sw", IngressNS: in, EgressNS: out, QueueDepth: 2}
	}
	sinkFrame(c, "dst", "src", 7, 1, 0, 1000, hop(100, 400))
	sinkFrame(c, "dst", "src", 7, 2, 2000, 3200, hop(2100, 2600))

	if c.Observations != 2 {
		t.Fatalf("Observations = %d, want 2", c.Observations)
	}
	ds := c.Digests()
	if len(ds) != 1 {
		t.Fatalf("got %d digests, want 1", len(ds))
	}
	p := ds[0]
	if p.Sink != "dst" || p.Source != "src" || p.Flow != 7 {
		t.Fatalf("digest identity = %s->%s flow %d", p.Source, p.Sink, p.Flow)
	}
	if p.Count != 2 || p.MinNS != 1000 || p.MaxNS != 1200 || p.SumNS != 2200 {
		t.Fatalf("e2e aggregate = count %d min %d max %d sum %d", p.Count, p.MinNS, p.MaxNS, p.SumNS)
	}
	// Jitter: |1200 - 1000| = 200, one interval.
	if p.JitterSumNS != 200 || p.JitterMaxNS != 200 || p.MeanJitterNS() != 200 {
		t.Fatalf("jitter aggregate = sum %d max %d mean %.0f", p.JitterSumNS, p.JitterMaxNS, p.MeanJitterNS())
	}
	if len(p.Hops) != 1 || p.Hops[0] != "sw" {
		t.Fatalf("hops = %v", p.Hops)
	}
	a := p.HopAggs[0]
	if a.Count != 2 || a.MinNS != 300 || a.MaxNS != 500 || a.SumNS != 800 || a.QueueMax != 2 {
		t.Fatalf("hop aggregate = %+v", a)
	}
	if got, want := p.MeanNS(), 1100.0; got != want {
		t.Fatalf("MeanNS = %v, want %v", got, want)
	}
}

func TestCollectorLossAndReorder(t *testing.T) {
	c := NewCollector()
	sinkFrame(c, "dst", "src", 1, 1, 0, 10)
	sinkFrame(c, "dst", "src", 1, 4, 0, 20) // 2,3 missing
	sinkFrame(c, "dst", "src", 1, 3, 0, 30) // late arrival
	sinkFrame(c, "dst", "src", 1, 5, 0, 40)

	fs := c.flows[flowKey{sink: "dst", flow: 1}]
	if fs.received != 4 || fs.lost != 2 || fs.reordered != 1 {
		t.Fatalf("flow counters = recv %d lost %d reordered %d, want 4/2/1", fs.received, fs.lost, fs.reordered)
	}
	if fs := c.flows[flowKey{sink: "dst", flow: 99}]; fs != nil {
		t.Fatalf("unknown flow reported %+v", *fs)
	}
}

func TestCollectorPathChange(t *testing.T) {
	c := NewCollector()
	via := func(node string) frame.INTHop { return frame.INTHop{Node: node, IngressNS: 1, EgressNS: 2} }
	sinkFrame(c, "dst", "src", 1, 1, 0, 100, via("sw1"))
	sinkFrame(c, "dst", "src", 1, 2, 0, 200, via("sw1"))
	// Failover: frames 3 and 4 are lost, frame 5 arrives via sw2.
	sinkFrame(c, "dst", "src", 1, 5, 0, 900, via("sw2"))

	if len(c.Digests()) != 2 {
		t.Fatalf("got %d digests, want one per path", len(c.Digests()))
	}
	chs := c.PathChanges()
	if len(chs) != 1 {
		t.Fatalf("got %d path changes, want 1", len(chs))
	}
	ch := chs[0]
	if ch.Sink != "dst" || ch.Flow != 1 || ch.AtSeq != 5 {
		t.Fatalf("change identity = %+v", ch)
	}
	if ch.GapNS != 700 {
		t.Fatalf("GapNS = %d, want 700 (silence between last-old and first-new)", ch.GapNS)
	}
	if ch.Silent != 2 {
		t.Fatalf("Silent = %d, want 2 (seqs 3,4)", ch.Silent)
	}
	if ch.From == "" || ch.From == ch.To {
		t.Fatalf("change keys: from %q to %q", ch.From, ch.To)
	}
}

// pathKeyOf is a path's key as the collector has always spelled it:
// sink, NUL, the flow id little-endian, source, then NUL and each hop.
func pathKeyOf(sink string, flow uint32, source string, hops ...string) string {
	k := sink + "\x00" + string([]byte{byte(flow), byte(flow >> 8), byte(flow >> 16), byte(flow >> 24)}) + source
	for _, h := range hops {
		k += "\x00" + h
	}
	return k
}

// TestCollectorPathChangesMidRun moves one flow across paths while a
// second flow at the same sink stays put: onto a new path, back to one
// it has used before, onto a longer path over the same first hop, and
// from a different source. Every move is one PathChange whose keys are
// the full path keys, a return reuses the path's digest, and frames on
// an unchanged path record nothing.
func TestCollectorPathChangesMidRun(t *testing.T) {
	c := NewCollector()
	via := func(nodes ...string) []frame.INTHop {
		hops := make([]frame.INTHop, len(nodes))
		for i, n := range nodes {
			hops[i] = frame.INTHop{Node: n, IngressNS: 1, EgressNS: 2}
		}
		return hops
	}
	type arrival struct {
		source string
		flow   uint32
		seq    uint32
		nowNS  int64
		hops   []string
	}
	for _, a := range []arrival{
		{"src", 1, 1, 100, []string{"sw1", "sw2"}},
		{"src", 2, 1, 110, []string{"sw9"}},
		{"src", 1, 2, 200, []string{"sw1", "sw2"}},
		{"src", 1, 3, 300, []string{"sw1", "sw3"}}, // a new path
		{"src", 2, 2, 310, []string{"sw9"}},
		{"src", 1, 6, 600, []string{"sw1", "sw2"}}, // back, after a gap
		{"src", 1, 7, 700, []string{"sw1", "sw2"}},
		{"src", 1, 8, 800, []string{"sw1", "sw2", "sw4"}}, // longer path
		{"alt", 1, 9, 900, []string{"sw1", "sw2", "sw4"}}, // same hops, other source
		{"alt", 1, 10, 1000, []string{"sw1", "sw2", "sw4"}},
	} {
		sinkFrame(c, "dst", a.source, a.flow, a.seq, 0, a.nowNS, via(a.hops...)...)
	}

	k12 := pathKeyOf("dst", 1, "src", "sw1", "sw2")
	k13 := pathKeyOf("dst", 1, "src", "sw1", "sw3")
	k124 := pathKeyOf("dst", 1, "src", "sw1", "sw2", "sw4")
	alt := pathKeyOf("dst", 1, "alt", "sw1", "sw2", "sw4")
	want := []PathChange{
		{Sink: "dst", Flow: 1, From: k12, To: k13, AtNS: 300, GapNS: 100, AtSeq: 3},
		{Sink: "dst", Flow: 1, From: k13, To: k12, AtNS: 600, GapNS: 300, AtSeq: 6, Silent: 2},
		{Sink: "dst", Flow: 1, From: k12, To: k124, AtNS: 800, GapNS: 100, AtSeq: 8},
		{Sink: "dst", Flow: 1, From: k124, To: alt, AtNS: 900, GapNS: 100, AtSeq: 9},
	}
	if got := c.PathChanges(); !slices.Equal(got, want) {
		t.Fatalf("path changes:\n got %+v\nwant %+v", got, want)
	}
	type digest struct {
		source string
		flow   uint32
		hops   string
		count  uint64
	}
	var got []digest
	for _, p := range c.Digests() {
		got = append(got, digest{p.Source, p.Flow, strings.Join(p.Hops, ","), p.Count})
	}
	wantDigests := []digest{
		{"src", 1, "sw1,sw2", 4},
		{"src", 2, "sw9", 2},
		{"src", 1, "sw1,sw3", 1},
		{"src", 1, "sw1,sw2,sw4", 1},
		{"alt", 1, "sw1,sw2,sw4", 2},
	}
	if !slices.Equal(got, wantDigests) {
		t.Fatalf("digests:\n got %+v\nwant %+v", got, wantDigests)
	}
}

// TestCollectorAbsorbKeepsItsOwnPaths: a flow absorbed from another
// collector continues on the absorbing collector's own digest of its
// path. A frame on that path after the merge counts there, changes
// nothing in the source collector, and is no path change.
func TestCollectorAbsorbKeepsItsOwnPaths(t *testing.T) {
	via := frame.INTHop{Node: "sw1", IngressNS: 1, EgressNS: 2}
	src := NewCollector()
	sinkFrame(src, "dst", "src", 1, 1, 0, 100, via)
	sinkFrame(src, "dst", "src", 1, 2, 0, 200, via)
	merged := NewCollector()
	merged.Absorb(src)
	sinkFrame(merged, "dst", "src", 1, 3, 0, 300, via)

	if n := src.Digests()[0].Count; n != 2 {
		t.Fatalf("the source collector's digest counts %d frames after the merge, want 2", n)
	}
	if len(merged.Digests()) != 1 || merged.Digests()[0].Count != 3 {
		t.Fatalf("merged digests = %d, first counting %d; want 1 counting 3", len(merged.Digests()), merged.Digests()[0].Count)
	}
	if n := len(merged.PathChanges()); n != 0 {
		t.Fatalf("merged recorded %d path changes, want 0", n)
	}
	if cur := merged.flows[flowKey{sink: "dst", flow: 1}].cur; cur != merged.Digests()[0] {
		t.Fatal("the absorbed flow's current path is not a digest of the absorbing collector")
	}
}

func TestCollectorObserverStream(t *testing.T) {
	c := NewCollector()
	var got []Observation
	c.OnSink = func(o Observation) { got = append(got, o) }
	sinkFrame(c, "dst", "src", 1, 1, 0, 100)
	sinkFrame(c, "dst", "src", 1, 3, 50, 250)

	if len(got) != 2 {
		t.Fatalf("observer saw %d observations, want 2", len(got))
	}
	if got[0].E2ENS != 100 || got[0].JitterNS != 0 || got[0].NewlyLost != 0 {
		t.Fatalf("first observation = %+v", got[0])
	}
	if got[1].E2ENS != 200 || got[1].JitterNS != 100 || got[1].NewlyLost != 1 {
		t.Fatalf("second observation = %+v", got[1])
	}
}

// feed replays one deterministic synthetic workload into c, cell by
// cell: offset displaces the timestamps, as disjoint sweep cells would.
func feed(c *Collector, offset int64) {
	via := func(node string, at int64) frame.INTHop {
		return frame.INTHop{Node: node, IngressNS: at, EgressNS: at + 300, QueueDepth: int32(at % 5)}
	}
	for seq := uint32(1); seq <= 20; seq++ {
		at := offset + int64(seq)*1000
		node := "sw1"
		if seq > 12 { // path change two thirds in
			node = "sw2"
		}
		if seq%7 == 0 {
			continue // a lost frame
		}
		// Constant e2e latency: consecutive-frame jitter is zero on both
		// sides of a cell boundary, so serial and Absorb-merged feeds
		// must agree exactly (Absorb cannot stitch jitter across cells).
		sinkFrame(c, "dst", "src", 1, seq, at, at+500, via(node, at+100))
	}
}

func digestOf(c *Collector) uint64 {
	d := checkpoint.NewDigest()
	c.FoldState(d)
	return d.Sum()
}

func TestCollectorAbsorb(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	feed(a, 0)
	feed(b, 1_000_000)
	merged := NewCollector()
	merged.Absorb(a)
	merged.Absorb(b)

	if want := a.Observations + b.Observations; merged.Observations != want {
		t.Fatalf("Observations = %d, want %d", merged.Observations, want)
	}
	// Both cells traverse the same two paths (sw1 then sw2): shared
	// paths merge their aggregates instead of duplicating digests.
	if len(merged.Digests()) != 2 {
		t.Fatalf("got %d digests, want 2", len(merged.Digests()))
	}
	for i, p := range merged.Digests() {
		pa, pb := a.Digests()[i], b.Digests()[i]
		if p.Count != pa.Count+pb.Count || p.SumNS != pa.SumNS+pb.SumNS {
			t.Fatalf("path %d aggregates: %d/%d, want %d/%d", i, p.Count, p.SumNS, pa.Count+pb.Count, pa.SumNS+pb.SumNS)
		}
		if p.HopAggs[0].Count != pa.HopAggs[0].Count+pb.HopAggs[0].Count {
			t.Fatalf("path %d hop counts did not add", i)
		}
	}
	k := flowKey{sink: "dst", flow: 1}
	fa, fb, fm := a.flows[k], b.flows[k], merged.flows[k]
	if fm.received != fa.received+fb.received || fm.lost != fa.lost+fb.lost {
		t.Fatalf("flow counters = %d/%d, want %d/%d", fm.received, fm.lost, fa.received+fb.received, fa.lost+fb.lost)
	}
	if len(merged.PathChanges()) != len(a.PathChanges())+len(b.PathChanges()) {
		t.Fatalf("path changes = %d, want %d", len(merged.PathChanges()), len(a.PathChanges())+len(b.PathChanges()))
	}

	// Absorbing into an empty collector deep-copies: mutating the merged
	// view must not reach back into the source cells.
	merged.Digests()[0].Count += 99
	if a.Digests()[0].Count+b.Digests()[0].Count == merged.Digests()[0].Count {
		t.Fatal("Absorb aliased the source digest")
	}
}

// TestCollectorMergeOrderInvariance mimics the sweep harnesses' merge:
// per-cell private collectors absorbed in cell order must produce the
// same bytes no matter how the cells were scheduled (the merge order is
// fixed, so this reduces to determinism of Absorb itself).
func TestCollectorMergeOrderInvariance(t *testing.T) {
	mkMerged := func() *Collector {
		cells := make([]*Collector, 3)
		for i := range cells {
			cells[i] = NewCollector()
			feed(cells[i], int64(i)*1_000_000)
		}
		m := NewCollector()
		for _, c := range cells {
			m.Absorb(c)
		}
		return m
	}
	var b1, b2 bytes.Buffer
	if err := mkMerged().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mkMerged().WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical cell merges produced different JSONL")
	}
}

func TestCollectorExportDeterministic(t *testing.T) {
	mk := func() *Collector {
		c := NewCollector()
		feed(c, 0)
		return c
	}
	c1, c2 := mk(), mk()
	var b1, b2 bytes.Buffer
	if err := c1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical feeds produced different JSONL")
	}
	if digestOf(c1) != digestOf(c2) {
		t.Fatal("two identical feeds produced different fold digests")
	}
}
