package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// beyond counts the samples strictly above the q-th percentile's rank
// in a sample of n.
func beyond(n int, q float64) int {
	return n - rank(n, q) - 1
}

// rank is the nearest-rank index of percentile q in a sorted sample of
// n (n > 0).
func rank(n int, q float64) int {
	// The epsilon keeps q*n products such as 0.9999*100000, which land a
	// hair above the integer in floating point, on that integer.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the q-th percentile of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), q)]
}

// supportedPercentile returns the q-th percentile of xs only when the
// reporting rule of the choosing-metrics guide allows quoting it — at
// least ten samples lie beyond it — and otherwise 0, which per-layer
// metrics use for "not measured".
func supportedPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 || beyond(len(xs), q) < 10 {
		return 0
	}
	return percentile(xs, q)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// relDiff is |a-b| as a share of their mean (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// col extracts one number from every rep.
func col[T any](reps []T, f func(T) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}
