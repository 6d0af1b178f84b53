package metrics

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortQuantiles are the quantiles the figures and tests read, plus the
// interpolating ones between them.
var sortQuantiles = []float64{0, 0.1, 0.25, 0.333, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSlice(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// checkSortMatchesCopy: a series sorted in place, and the jitter series
// ScaledJitter merges from it, are bit for bit what the copy-and-sort
// path gives — samples, every quantile, Len, Min, Max — and Sum and
// Mean are those Add folded, in insertion order for the series and in
// ascending order for the jitter. vs must hold no NaN and no −0.
func checkSortMatchesCopy(t *testing.T, vs []float64) {
	t.Helper()
	ref := seriesOf(vs...) // never sorted: quantiles read a sorted copy
	want := slices.Clone(vs)
	sort.Float64s(want)

	s := NewSeriesFrom(slices.Clone(vs))
	s.Sort()
	if got := slices.Collect(s.All()); !sameSlice(got, want) {
		t.Fatalf("%v sorted in place: %v, want %v", vs, got, want)
	}
	if s.Len() != ref.Len() || !sameBits(s.Sum(), ref.Sum()) || !sameBits(s.Mean(), ref.Mean()) ||
		!sameBits(s.Min(), ref.Min()) || !sameBits(s.Max(), ref.Max()) {
		t.Fatalf("%v: sorted Len/Sum/Mean/Min/Max %d/%v/%v/%v/%v, insertion order %d/%v/%v/%v/%v",
			vs, s.Len(), s.Sum(), s.Mean(), s.Min(), s.Max(), ref.Len(), ref.Sum(), ref.Mean(), ref.Min(), ref.Max())
	}
	for _, q := range sortQuantiles {
		if got, want := s.Quantile(q), ref.Quantile(q); !sameBits(got, want) {
			t.Fatalf("%v: Quantile(%v) sorted in place %v, from a copy %v", vs, q, got, want)
		}
	}

	med := ref.Median()
	for _, scale := range []float64{1, 1e3} {
		// The jitter as it was built before: insertion order, sorted
		// by its quantiles into a copy.
		old := NewSeries(len(vs))
		devs := make([]float64, 0, len(vs))
		for _, d := range vs {
			dev := (d - med) * scale
			if dev < 0 {
				dev = -dev
			}
			old.Add(dev)
			devs = append(devs, dev)
		}
		sort.Float64s(devs)
		ascending := seriesOf(devs...)

		delays := seriesOf(vs...)
		j := ScaledJitter(delays, scale)
		if got := slices.Collect(j.All()); !sameSlice(got, devs) {
			t.Fatalf("%v ×%v: merged jitter %v, want %v", vs, scale, got, devs)
		}
		if j.Len() != old.Len() || !sameBits(j.Min(), old.Min()) || !sameBits(j.Max(), old.Max()) ||
			!sameBits(j.Sum(), ascending.Sum()) || !sameBits(j.Mean(), ascending.Mean()) {
			t.Fatalf("%v ×%v: jitter Len/Min/Max/Sum %d/%v/%v/%v, want %d/%v/%v/%v",
				vs, scale, j.Len(), j.Min(), j.Max(), j.Sum(), old.Len(), old.Min(), old.Max(), ascending.Sum())
		}
		for _, q := range sortQuantiles {
			if got, want := j.Quantile(q), old.Quantile(q); !sameBits(got, want) {
				t.Fatalf("%v ×%v: jitter Quantile(%v) %v, from a copy %v", vs, scale, q, got, want)
			}
		}
		if !sameBits(delays.Sum(), ref.Sum()) || !sameBits(delays.Min(), ref.Min()) || !sameBits(delays.Max(), ref.Max()) {
			t.Fatalf("%v: ScaledJitter moved its input's Sum/Min/Max", vs)
		}
	}
}

func TestSortInPlaceMatchesCopy(t *testing.T) {
	for _, tc := range []struct {
		name string
		vs   []float64
	}{
		{"empty", nil},
		{"one", []float64{4.5}},
		{"two", []float64{9, -3}},
		{"two equal", []float64{2, 2}},
		{"ties", []float64{5, 1, 5, 1, 5, 3, 3}},
		{"several at the median", []float64{10, 7, 10, 10, 13, 10, 2, 10}},
		{"median between samples", []float64{1, 2, 3, 4}},
		{"negative", []float64{-0.25, -8, 3.5, -8, 0, -1e-9}},
		{"all negative", []float64{-3, -1, -2, -1}},
		{"one outlier", []float64{12.125, 12.125, 12.125, 12.125, 900}},
		{"descending", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSortMatchesCopy(t, tc.vs) })
	}
	finite := func(vs []float64) bool {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v == 0 {
				vs[i] = 0 // no −0
			}
		}
		checkSortMatchesCopy(t, vs)
		return !t.Failed()
	}
	if err := quick.Check(finite, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzSeriesSort checks the in-place sort and the merge-built jitter
// against the copy-and-sort path. Without raw, each byte is a sample in
// quarters between −32 and 31.75, so ties and samples at the median are
// common; with raw, each 8 bytes are a sample's bits, NaN and ±Inf
// dropped and −0 read as 0.
func FuzzSeriesSort(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{7}, false)
	f.Add([]byte{40, 200}, false)
	f.Add([]byte{3, 3, 3, 250, 7, 3, 3, 128}, false)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
		math.Float64bits(1.5e300)), math.Float64bits(-2.5e-310)), true)
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		var vs []float64
		if !raw {
			for _, b := range data {
				vs = append(vs, float64(int8(b))/4)
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				if v == 0 {
					v = 0
				}
				vs = append(vs, v)
			}
		}
		checkSortMatchesCopy(t, vs)
	})
}

// TestSortReadsInPlace: once sorted, quantiles read the samples with no
// buffer beside them and allocate nothing; Sort itself allocates
// nothing; an Add afterwards leaves the series unsorted, and the copy
// path answers again.
func TestSortReadsInPlace(t *testing.T) {
	s := seriesOf(5, 3, 9, 1, 7)
	if allocs := testing.AllocsPerRun(10, s.Sort); allocs != 0 {
		t.Fatalf("Sort allocates %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = s.P99() }); allocs != 0 || s.sorted != nil {
		t.Fatalf("a sorted series' quantile allocates %.0f times (buffer %v)", allocs, s.sorted)
	}
	if got := slices.Collect(s.All()); !slices.Equal(got, []float64{1, 3, 5, 7, 9}) {
		t.Fatalf("All after Sort = %v", got)
	}
	s.Add(0)
	if got := s.Quantile(0); got != 0 || s.sorted == nil {
		t.Fatalf("Quantile(0) after an Add = %v (buffer %v), want 0 from a sorted copy", got, s.sorted)
	}
	if got := slices.Collect(s.All()); !slices.Equal(got, []float64{1, 3, 5, 7, 9, 0}) {
		t.Fatalf("All after an Add = %v", got)
	}
}

// TestBurstsRefusesSortedSeries: a sorted series has lost its cycles'
// order, so a burst scan over it would count, not find runs.
func TestBurstsRefusesSortedSeries(t *testing.T) {
	j := Jitter(seriesOf(0, 5, 0, 5, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Bursts scanned a sorted series")
		}
	}()
	Bursts(j, 1, 2)
}
