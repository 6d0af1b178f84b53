package ebpf

import "steelnet/internal/checkpoint"

// FoldState folds the ring's buffered records in order plus its
// produced/consumed/dropped counters.
func (r *RingBuf) FoldState(d *checkpoint.Digest) {
	d.Str(r.Name)
	d.Int(r.capacity)
	d.Int(r.Len())
	for i := 0; i < r.Len(); i++ {
		d.Bytes(r.record(i))
	}
	d.U64(r.Produced)
	d.U64(r.Consumed)
	d.U64(r.Dropped)
}

// FoldState folds the program's instruction stream and the state of
// every attached ring buffer. The VM itself is stateless between
// invocations (registers live only inside Run), so a program plus its
// rings is the complete eBPF state.
func (p *Program) FoldState(d *checkpoint.Digest) {
	d.Str(p.Name)
	d.Int(len(p.Insns))
	for _, in := range p.Insns {
		d.U64(uint64(in.Op))
		d.U64(uint64(in.Dst))
		d.U64(uint64(in.Src))
		d.I64(int64(in.Off))
		d.U64(uint64(in.Size))
		d.I64(in.Imm)
	}
	for _, r := range p.Rings {
		r.FoldState(d)
	}
}
