package sim

import (
	"sort"

	"steelnet/internal/checkpoint"
)

// State returns the stream's raw splitmix64 state. Exposed for the
// checkpoint digest: two streams with equal state produce identical
// future draws.
func (r *RNG) State() uint64 { return r.state }

// FoldState folds the engine's replay-visible state into d: current
// time, scheduling sequence counter, events fired, pending events
// (as sorted (at, seq) pairs — the queue's layout is an implementation
// detail that may differ between a straight run and a replayed one),
// and every named RNG stream in sorted name order. Two engines that
// fold equal are at the same instant of the same run: every future
// event fires at the same time in the same order with the same draws.
func (e *Engine) FoldState(d *checkpoint.Digest) {
	// Shard layout prefix (checkpoint format v3): a sharded engine's
	// digest pins which shard of how many it is, so a checkpoint taken
	// under one partition cannot silently verify against another.
	d.Int(e.shard)
	d.Int(e.ShardCount())
	d.I64(int64(e.now))
	d.U64(e.seq)
	d.U64(e.fired)
	d.U64(e.seed)
	d.Int(e.live)

	pending := make([]*slot, 0, e.live)
	e.eachList(func(b *bucket) {
		for s := b.head; s != nil; s = s.next {
			if s.state == statePending {
				pending = append(pending, s)
			}
		}
	})
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	for _, s := range pending {
		d.I64(int64(s.at))
		d.U64(s.seq)
	}

	names := make([]string, 0, len(e.rngs))
	for name := range e.rngs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Str(name)
		d.U64(e.rngs[name].state)
	}
}
