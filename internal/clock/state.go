package clock

import "steelnet/internal/checkpoint"

// FoldState folds the adjustable clock's piecewise-linear state — the
// rebase instant, accumulated reading and current frequency error —
// into the checkpoint digest.
func (a *Adjustable) FoldState(d *checkpoint.Digest) {
	d.I64(int64(a.base))
	d.I64(a.acc)
	d.F64(a.drift)
}
