package simnet

import (
	"fmt"
	"iter"
	"slices"
	"strconv"

	"steelnet/internal/telemetry"
)

// Accounting is the frame-conservation ledger of a set of egress ports:
// every frame a queue accepted must be delivered, destroyed for an
// enumerated cause, or still be sitting in a queue or on a wire. It is
// the observable-counter counterpart of the frame-pool Outstanding==0
// invariant — strong enough to hold mid-run, at any horizon cut, not
// just after a full drain.
type Accounting struct {
	// Accepted counts frames the egress queues accepted ("sent").
	Accepted uint64
	// Delivered counts frames that completed link traversal ("forwarded").
	Delivered uint64
	// Destroyed sums the terminal drop causes: shaper never-eligible,
	// flushes (link-down/switch-crash), wire deaths, and injected losses.
	Destroyed uint64
	// Queued and InFlight count frames still in the network at the
	// moment of the snapshot.
	Queued   uint64
	InFlight uint64

	// Per-cause breakdown, for error messages and per-cause assertions.
	ShaperDrops, FlushedDrops, WireDrops, InjectedDrops uint64
	// Refusals at Send. These frames were never accepted, so they sit
	// outside the conservation identity, but chaos assertions want them.
	OverflowDrops, DownDrops uint64
	// INTDrops counts frames a strict INT stack-overflow destroyed
	// inside a switch. The upstream link already counted those frames
	// Delivered (delivery is the identity's terminal state), so they
	// need no Destroyed term — the identity holds with INT on because
	// INT-bearing frames change only WireLen, never ownership, and
	// INT-caused deaths happen strictly between one port's Delivered
	// and the next port's Accepted. The counter is here so chaos
	// assertions can still demand the deaths be enumerated.
	INTDrops uint64

	// CrossWire counts frames in flight on cross-shard links: handed to
	// the shard group by the sending shard but not yet delivered by the
	// receiving one. Port.InFlight cannot see them (the sending port
	// decremented at hand-off; the receiving port never increments), so
	// a sharded network's identity needs this term — each cross-shard
	// frame appears here exactly once, via AddCrossLink on each link
	// exactly once. Meaningful only at window barriers, where the
	// senders' and receivers' counters are ordered.
	CrossWire uint64
}

// Add accumulates one port's counters into the ledger.
func (a *Accounting) Add(p *Port) {
	a.Accepted += p.Accepted()
	a.Delivered += p.DeliveredFrames()
	a.Queued += uint64(p.QueueDepth())
	a.InFlight += uint64(p.InFlight())
	c := p.readCold()
	a.Destroyed += c.shaperDrops + c.flushedDrops + c.wireDrops + c.injectedDrops
	a.ShaperDrops += c.shaperDrops
	a.FlushedDrops += c.flushedDrops
	a.WireDrops += c.wireDrops
	a.InjectedDrops += c.injectedDrops
	a.OverflowDrops += p.OverflowDrops()
	a.DownDrops += c.downDrops
	a.INTDrops += c.intDrops
}

// AddCrossLink accumulates a cross-shard link's wire occupancy into the
// ledger. Call it once per cross-shard link, at a window barrier. Links
// that are not cross-shard contribute nothing (their in-flight frames
// are already in Port.InFlight).
func (a *Accounting) AddCrossLink(l *Link) {
	if l.cross == nil {
		return
	}
	for end := 0; end < 2; end++ {
		a.CrossWire += l.cross.sent[end] - l.Delivered[end]
	}
}

// Check returns an error unless delivered + destroyed + queued + in-flight
// frames exactly equal the frames accepted — the forwarded+dropped==sent
// identity the chaos suites assert per run. In-flight splits into
// intra-shard wires (InFlight) and cross-shard wires (CrossWire).
func (a Accounting) Check() error {
	got := a.Delivered + a.Destroyed + a.Queued + a.InFlight + a.CrossWire
	if got != a.Accepted {
		return fmt.Errorf("simnet: frame conservation violated: accepted=%d but delivered=%d + destroyed=%d + queued=%d + in-flight=%d + cross-wire=%d = %d",
			a.Accepted, a.Delivered, a.Destroyed, a.Queued, a.InFlight, a.CrossWire, got)
	}
	return nil
}

// Account builds the conservation ledger over the given ports.
func Account(ports ...*Port) Accounting {
	var a Accounting
	for _, p := range ports {
		a.Add(p)
	}
	return a
}

// portLabels builds the label set identifying one port.
func portLabels(p *Port) telemetry.Labels {
	return telemetry.L("node", p.Owner.Name(), "port", strconv.Itoa(p.Index))
}

// RegisterPortMetrics exposes a port's counters on r. All metrics are
// func-backed reads of the live counters: registration costs the hot
// path nothing.
func RegisterPortMetrics(r *telemetry.Registry, p *Port) {
	ls := portLabels(p)
	r.Counter("steelnet_port_tx_frames_total", ls, "frames that began transmission", func() uint64 { return p.TxFrames })
	r.Counter("steelnet_port_rx_frames_total", ls, "frames received", func() uint64 { return p.RxFrames })
	r.Counter("steelnet_port_tx_bytes_total", ls, "bytes transmitted", func() uint64 { return p.TxBytes })
	r.Counter("steelnet_port_rx_bytes_total", ls, "bytes received", func() uint64 { return p.RxBytes })
	r.Counter("steelnet_port_corrupted_total", ls, "frames damaged by corruption injection", p.CorruptedFrames)
	r.Gauge("steelnet_port_queue_depth", ls, "egress queue depth", func() float64 { return float64(p.QueueDepth()) })
	r.Gauge("steelnet_port_queue_high_water", ls, "deepest egress queue depth seen", func() float64 { return float64(p.QueueHighWater) })
	r.Gauge("steelnet_port_in_flight", ls, "frames on the wire from this port", func() float64 { return float64(p.InFlight()) })
	for _, dc := range []struct {
		cause string
		read  func() uint64
	}{
		{"overflow", p.OverflowDrops},
		{"link-down", p.DownDrops},
		{"shaper", p.ShaperDrops},
		{"flush", p.FlushedDrops},
		{"wire", p.WireDrops},
		{"injected", p.InjectedDrops},
		{"switch-failed", p.FailedDrops},
		{"int-overflow", p.INTDrops},
	} {
		cls := append(append(telemetry.Labels{}, ls...), telemetry.Label{K: "cause", V: dc.cause})
		r.Counter("steelnet_port_drops_total", cls, "frames dropped, by cause", dc.read)
	}
}

// RegisterSwitchMetrics exposes a switch's counters and those of all its
// ports on r.
func RegisterSwitchMetrics(r *telemetry.Registry, s *Switch) {
	ls := telemetry.L("node", s.Name())
	r.Counter("steelnet_switch_forwarded_total", ls, "frames forwarded (including floods)", func() uint64 { return s.ForwardedFrames })
	r.Counter("steelnet_switch_flooded_total", ls, "frames flooded", func() uint64 { return s.FloodedFrames })
	r.Counter("steelnet_switch_failed_drops_total", ls, "frames dropped while crashed", func() uint64 { return s.DroppedWhileFailed })
	r.Counter("steelnet_switch_blocked_drops_total", ls, "frames dropped at blocked ports", func() uint64 { return s.BlockedDrops })
	r.Counter("steelnet_switch_hairpin_drops_total", ls, "frames whose egress equals ingress", func() uint64 { return s.HairpinDrops })
	r.Counter("steelnet_switch_int_drops_total", ls, "frames dropped on strict INT stack overflow", func() uint64 { return s.INTDrops })
	for i := range s.ports {
		RegisterPortMetrics(r, &s.ports[i])
	}
}

// RegisterHostMetrics exposes a host's counters and its port's on r.
func RegisterHostMetrics(r *telemetry.Registry, h *Host) {
	ls := telemetry.L("node", h.Name())
	r.Counter("steelnet_host_rx_total", ls, "frames delivered to the host handler", func() uint64 { return h.RxCount })
	RegisterPortMetrics(r, &h.port)
}

// RegisterLinkMetrics exposes a link's per-direction counters on r.
func RegisterLinkMetrics(r *telemetry.Registry, l *Link) {
	for end := 0; end < 2; end++ {
		end := end
		ls := telemetry.L("link", l.Name, "dir", strconv.Itoa(end))
		r.Counter("steelnet_link_delivered_total", ls, "frames that completed traversal", func() uint64 { return l.Delivered[end] })
	}
	r.Gauge("steelnet_link_up", telemetry.L("link", l.Name), "1 when the link carries traffic", func() float64 {
		if l.up {
			return 1
		}
		return 0
	})
}

// SetTracer attaches lifecycle tracer t to every switch and host placed
// on shard s (0 after Build) and binds it to that shard's engine.
// Tracers are per shard: one shared across shards would be written by
// concurrent workers. Merge per-shard traces in shard order for a
// deterministic combined stream.
func (n *Network) SetTracer(s int, t *telemetry.Tracer) {
	t.Bind(n.engines[s])
	for id, of := range n.Part.Of {
		if of != s {
			continue
		}
		if sw := n.switches[id]; sw != nil {
			sw.SetTracer(t)
		} else {
			n.hosts[id].SetTracer(t)
		}
	}
}

// RegisterMetrics exposes every component's counters on r, plus the
// engine's internals when there is one engine (a shard group's are
// telemetry.RegisterShardGroupMetrics's to expose).
func (n *Network) RegisterMetrics(r *telemetry.Registry) {
	for _, sw := range n.switches {
		if sw != nil {
			RegisterSwitchMetrics(r, sw)
		}
	}
	for _, h := range n.hosts {
		if h != nil {
			RegisterHostMetrics(r, h)
		}
	}
	for _, l := range n.links {
		RegisterLinkMetrics(r, l)
	}
	if n.Group == nil {
		telemetry.RegisterEngineMetrics(r, n.engines[0])
	}
}

// Ports returns all ports of the network's switches and hosts in node-id
// order — the set Account covers in a whole-network conservation check.
func (n *Network) Ports() []*Port {
	var out []*Port
	for id := range n.Part.Of {
		out = slices.AppendSeq(out, n.nodePorts(id))
	}
	return out
}

// nodePorts yields node id's ports in index order: a switch's cut of the
// port slab, or a host's one port.
func (n *Network) nodePorts(id int) iter.Seq[*Port] {
	return func(yield func(*Port) bool) {
		sw := n.switches[id]
		if sw == nil {
			yield(&n.hosts[id].port)
			return
		}
		for i := range sw.ports {
			if !yield(&sw.ports[i]) {
				return
			}
		}
	}
}

// Account builds the whole-network conservation ledger, including the
// cross-shard wire term. On a sharded network call it at a window
// barrier (between Run calls): that is when the senders' and receivers'
// counters are ordered, and when every cross-shard in-flight frame is
// counted exactly once — by its link's sent/Delivered difference and by
// nothing else.
func (n *Network) Account() Accounting {
	var a Accounting
	for id := range n.Part.Of {
		for p := range n.nodePorts(id) {
			a.Add(p)
		}
	}
	for _, l := range n.links {
		a.AddCrossLink(l)
	}
	return a
}
