package ebpf

import (
	"sort"

	"steelnet/internal/checkpoint"
)

// FoldState folds the map's full contents — array slots in index order,
// hash entries in sorted key order — plus the helper-traffic counters.
func (m *Map) FoldState(d *checkpoint.Digest) {
	d.Str(m.Name)
	d.Int(int(m.Kind))
	d.Int(m.MaxSize)
	d.Int(len(m.arr))
	for _, v := range m.arr {
		d.U64(v)
	}
	keys := make([]uint64, 0, len(m.hash))
	for k := range m.hash {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	d.Int(len(keys))
	for _, k := range keys {
		d.U64(k)
		d.U64(m.hash[k])
	}
	d.U64(m.Lookups)
	d.U64(m.Updates)
}

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
// every attached map and ring buffer. The VM itself is stateless
// between invocations (registers live only inside Run), so a program
// plus its maps is the complete eBPF state.
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
	for _, m := range p.Maps {
		m.FoldState(d)
	}
	for _, r := range p.Rings {
		r.FoldState(d)
	}
}
