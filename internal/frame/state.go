package frame

import "steelnet/internal/checkpoint"

// FoldState folds the pool's allocation accounting — the basis of the
// frame-conservation identity (Outstanding == frames alive in the
// network).
func (p *Pool) FoldState(d *checkpoint.Digest) {
	d.U64(p.News)
	d.U64(p.Reused)
	d.U64(p.Puts)
	d.Int(len(p.free))
}

// FoldState folds the frame's wire-visible content, the body as
// Payload followed by its zero tail, plus the metadata that influences
// future behavior (CreatedAt feeds latency samples) and the INT stack:
// its stamped hops change WireLen and the sink-side digests, so a
// queued INT frame's stack is part of the state that must replay
// identically. The fold order is part of the checkpoint format.
func (f *Frame) FoldState(d *checkpoint.Digest) {
	d.Bytes(f.Dst[:])
	d.Bytes(f.Src[:])
	d.Bool(f.Tagged)
	d.U64(uint64(f.Priority))
	d.U64(uint64(f.VID))
	d.U64(uint64(f.Type))
	d.BytesThenZeros(f.Payload, int(f.ZeroTail))
	d.I64(f.Meta.CreatedAt)
	d.U64(uint64(f.Meta.FlowID))
	d.Bool(f.INT != nil)
	if s := f.INT; s != nil {
		d.Str(s.Source)
		d.I64(s.SourceNS)
		d.U64(uint64(s.FlowID))
		d.U64(uint64(s.Seq))
		d.Int(s.MaxHops)
		d.Bool(s.Strict)
		d.Int(len(s.Hops))
		for _, h := range s.Hops {
			d.Str(h.Node)
			d.I64(h.IngressNS)
			d.I64(h.EgressNS)
			d.I64(int64(h.QueueDepth))
			d.Bool(h.DropRisk)
		}
	}
}
