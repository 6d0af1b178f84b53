package metrics

import "steelnet/internal/checkpoint"

// FoldState folds the series' samples in insertion order. Sum and
// extrema are derived from the samples, so they are not folded
// separately.
func (s *Series) FoldState(d *checkpoint.Digest) {
	d.Int(len(s.samples))
	for _, v := range s.samples {
		d.F64(v)
	}
}

// NewSeriesFrom builds a series over samples in insertion order, taking
// the slice as its storage: how a harness adopts a result slab it
// filled itself. Sum and
// extrema fold in Add's order, so the result is indistinguishable from
// adding each sample with Add, to the last bit of Mean. The caller
// must not touch samples afterwards.
func NewSeriesFrom(samples []float64) *Series {
	if len(samples) == 0 {
		return &Series{}
	}
	s := &Series{samples: samples, dirty: true}
	for i, v := range samples {
		if i == 0 || v < s.min {
			s.min = v
		}
		if i == 0 || v > s.max {
			s.max = v
		}
		s.sum += v
	}
	return s
}
