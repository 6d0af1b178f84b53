// Package metrics collects and summarizes the measurements the paper's
// evaluation reports: latency/jitter distributions rendered as CDFs,
// consecutive-jitter ("watchdog burst") detection, packets-per-interval
// time series (Fig. 5), and service-availability accounting in "nines"
// (§2.2). It also renders figures as stable ASCII tables so the CLIs,
// benchmarks and EXPERIMENTS.md agree byte for byte.
package metrics

import (
	"iter"
	"math"
	"sort"
	"time"
)

// Series is an append-only collection of float64 samples with lazy
// order statistics. Running sum and extrema are maintained in Add, so
// Sum/Mean/Min/Max never sort; quantiles sort lazily into a buffer that
// is reused across calls, or, once the owner has called Sort, read the
// samples themselves. The zero value is ready to use.
type Series struct {
	samples   []float64
	sorted    []float64 // reusable sort buffer; valid when !dirty
	dirty     bool      // samples appended since the last sort
	ascending bool      // samples are sorted in place (Sort)
	sum       float64
	min, max  float64 // running extrema; meaningful when len(samples) > 0
}

// NewSeries returns a Series pre-sized for n samples.
func NewSeries(n int) *Series {
	return &Series{samples: make([]float64, 0, n)}
}

// Add appends a sample, updating the running sum and extrema.
func (s *Series) Add(v float64) {
	if len(s.samples) == 0 || v < s.min {
		s.min = v
	}
	if len(s.samples) == 0 || v > s.max {
		s.max = v
	}
	s.samples = append(s.samples, v)
	s.sum += float64(v) // rounds a product an inlined caller passes: no fused multiply-add
	s.dirty = true
	s.ascending = false
}

// Sort sorts the samples in place, ascending, for an owner that has
// finished adding: quantiles then read the samples directly, with no
// sorted copy beside them. Len, Sum, Mean, Min and Max keep what Add
// folded in insertion order; All, Stddev and FoldState see ascending
// order from then on. A series whose order means something must keep
// it and not be sorted: one a digest folds, one Bursts scans. Adding
// after Sort is allowed and leaves the series unsorted again.
func (s *Series) Sort() {
	if s.ascending {
		return
	}
	sort.Float64s(s.samples)
	s.ascending, s.sorted, s.dirty = true, nil, false
}

// AddDuration appends a duration sample in nanoseconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(float64(d)) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample, or 0 for an empty series. It reads
// the running extremum maintained by Add and never sorts.
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 for an empty series. It reads
// the running extremum maintained by Add and never sorts.
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Stddev returns the population standard deviation.
func (s *Series) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.samples {
		d := v - m
		acc += float64(d * d)
	}
	return math.Sqrt(acc / float64(n))
}

// Quantile returns the q-quantile (0 <= q <= 1) with linear interpolation.
func (s *Series) Quantile(q float64) float64 {
	ss := s.samples
	if !s.ascending {
		ss = s.ensureSorted()
	}
	n := len(ss)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return ss[0]
	}
	if q >= 1 {
		return ss[n-1]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ss[lo]
	}
	frac := pos - float64(lo)
	return float64(ss[lo]*(1-frac)) + float64(ss[hi]*frac)
}

// Median returns the 0.5 quantile.
func (s *Series) Median() float64 { return s.Quantile(0.5) }

// P99 returns the 0.99 quantile.
func (s *Series) P99() float64 { return s.Quantile(0.99) }

// P999 returns the 0.999 quantile.
func (s *Series) P999() float64 { return s.Quantile(0.999) }

// All yields the raw samples in insertion order, or ascending after
// Sort, in place: a reader that keeps none of them needs no copy.
// Adding to the series while iterating is not allowed.
func (s *Series) All() iter.Seq[float64] {
	return func(yield func(float64) bool) {
		for _, v := range s.samples {
			if !yield(v) {
				return
			}
		}
	}
}

// CDF returns points quantile-spaced CDF points (x, P(X<=x)), suitable for
// plotting. points must be >= 2.
func (s *Series) CDF(points int) []CDFPoint {
	if points < 2 {
		points = 2
	}
	out := make([]CDFPoint, points)
	for i := 0; i < points; i++ {
		p := float64(i) / float64(points-1)
		out[i] = CDFPoint{X: s.Quantile(p), P: p}
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	P float64 // cumulative probability
}

func (s *Series) ensureSorted() []float64 {
	if s.dirty || len(s.sorted) != len(s.samples) {
		if cap(s.sorted) < len(s.samples) {
			// Match the samples slice's capacity so the buffer keeps
			// being reused while the series grows within it.
			s.sorted = make([]float64, 0, cap(s.samples))
		}
		s.sorted = append(s.sorted[:0], s.samples...)
		sort.Float64s(s.sorted)
		s.dirty = false
	}
	return s.sorted
}
