package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func seriesOf(vs ...float64) *Series {
	s := NewSeries(len(vs))
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func TestSeriesBasicStats(t *testing.T) {
	s := seriesOf(1, 2, 3, 4, 5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	want := math.Sqrt(2)
	if d := s.Stddev(); math.Abs(d-want) > 1e-12 {
		t.Fatalf("Stddev = %v, want %v", d, want)
	}
}

func TestEmptySeriesIsSafe(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 {
		t.Fatal("empty series stats not zero")
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := seriesOf(0, 10)
	if q := s.Quantile(0.5); q != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := s.Quantile(1); q != 10 {
		t.Fatalf("Quantile(1) = %v", q)
	}
	if q := s.Quantile(0.25); q != 2.5 {
		t.Fatalf("Quantile(0.25) = %v", q)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPointsMonotonic(t *testing.T) {
	s := seriesOf(5, 1, 9, 3, 7, 2)
	pts := s.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[0].P != 0 || pts[len(pts)-1].P != 1 {
		t.Fatal("CDF endpoints wrong")
	}
}

func TestSeriesQuantileAgainstSort(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries(len(raw))
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			s.Add(float64(v))
		}
		sort.Float64s(vals)
		return s.Min() == vals[0] && s.Max() == vals[len(vals)-1] && s.Median() >= vals[0] && s.Median() <= vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Nanosecond)
	if s.Max() != 1500 {
		t.Fatalf("AddDuration stored %v", s.Max())
	}
}

func TestJitterOfConstantSeriesIsZero(t *testing.T) {
	s := seriesOf(7, 7, 7, 7)
	j := Jitter(s)
	if j.Max() != 0 {
		t.Fatalf("jitter of constant = %v", j.Max())
	}
}

func TestJitterAbsoluteDeviationFromMedian(t *testing.T) {
	s := seriesOf(10, 10, 10, 14, 6)
	j := Jitter(s) // median 10 -> deviations 0,0,0,4,4
	if j.Max() != 4 {
		t.Fatalf("jitter max = %v, want 4", j.Max())
	}
	if j.Min() != 0 {
		t.Fatalf("jitter min = %v, want 0", j.Min())
	}
}

func TestInterArrivalJitter(t *testing.T) {
	arrivals := []int64{0, 1000, 2100, 2900, 4000}
	j := InterArrivalJitter(arrivals, 1000*time.Nanosecond)
	// interarrivals: 1000,1100,800,1100 -> deviations 0,100,200,100
	if j.Len() != 4 {
		t.Fatalf("len = %d", j.Len())
	}
	if j.Max() != 200 {
		t.Fatalf("max = %v", j.Max())
	}
}

func TestBurstsDetectsRuns(t *testing.T) {
	j := seriesOf(0, 5, 5, 5, 0, 5, 0, 5, 5)
	bursts := Bursts(j, 1, 2)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %+v", bursts)
	}
	if bursts[0].Start != 1 || bursts[0].Length != 3 {
		t.Fatalf("burst0 = %+v", bursts[0])
	}
	if bursts[1].Start != 7 || bursts[1].Length != 2 {
		t.Fatalf("burst1 = %+v", bursts[1])
	}
}

func TestBurstsTrailingRunFlushed(t *testing.T) {
	j := seriesOf(0, 9, 9)
	bursts := Bursts(j, 1, 1)
	if len(bursts) != 1 || bursts[0].Peak != 9 {
		t.Fatalf("bursts = %+v", bursts)
	}
}

func TestWouldTripWatchdog(t *testing.T) {
	j := seriesOf(0, 5, 5, 0)
	if WouldTripWatchdog(j, 1, 3) {
		t.Fatal("tripped with only 2 consecutive misses")
	}
	if !WouldTripWatchdog(j, 1, 2) {
		t.Fatal("did not trip with budget 2")
	}
}

func TestMinMaxDoNotSort(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 1000; i++ {
		s.Add(float64((i * 7919) % 1000))
	}
	if s.Min() != 0 || s.Max() != 999 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Regression: min/max-only use must never materialize the sorted
	// buffer (the old implementation sorted all samples for Min).
	if s.sorted != nil {
		t.Fatal("Min/Max materialized the sorted cache")
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = s.Min()
		_ = s.Max()
		_ = s.Mean()
	}); avg != 0 {
		t.Fatalf("Min/Max/Mean allocate %v per call, want 0", avg)
	}
}

func TestMinMaxTrackNegativesAndUpdates(t *testing.T) {
	var s Series
	s.Add(-5)
	if s.Min() != -5 || s.Max() != -5 {
		t.Fatalf("single sample Min/Max = %v/%v", s.Min(), s.Max())
	}
	s.Add(3)
	s.Add(-10)
	if s.Min() != -10 || s.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v, want -10/3", s.Min(), s.Max())
	}
	// Cross-check against the sorted path.
	if s.Min() != s.Quantile(0) || s.Max() != s.Quantile(1) {
		t.Fatalf("running extrema disagree with quantile extremes")
	}
}

func TestSortedBufferReusedAcrossQuantileCalls(t *testing.T) {
	s := NewSeries(1024)
	for i := 0; i < 512; i++ {
		s.Add(float64(512 - i))
	}
	_ = s.Quantile(0.5)
	ptr := &s.sorted[0]
	s.Add(0.5) // invalidate; capacity is still sufficient
	_ = s.Quantile(0.9)
	if &s.sorted[0] != ptr {
		t.Fatal("quantile re-sort reallocated the sorted buffer")
	}
	if got := s.Quantile(0); got != 0.5 {
		t.Fatalf("Quantile(0) = %v after re-sort, want 0.5", got)
	}
	// A second call without Adds must not re-sort: mutate the cache and
	// observe the (stale) value coming straight back.
	s.sorted[0] = -1
	if got := s.Quantile(0); got != -1 {
		t.Fatal("Quantile re-sorted a clean cache")
	}
}

// TestSeriesAllReadsInPlace: All yields the samples in insertion order
// without copying them, stops when the loop breaks, and yields nothing
// for the zero value.
func TestSeriesAllReadsInPlace(t *testing.T) {
	var s Series
	for range s.All() {
		t.Fatal("the zero series yielded a sample")
	}
	want := []float64{3, -1, 4, 1, 5}
	for _, v := range want {
		s.Add(v)
	}
	var got []float64
	for v := range s.All() {
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All yielded %v, want %v", got, want)
	}
	n := 0
	for range s.All() {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("the loop ran %d times after a break at 2", n)
	}
	sum := 0.0
	if allocs := testing.AllocsPerRun(10, func() {
		for v := range s.All() {
			sum += v
		}
	}); allocs != 0 {
		t.Fatalf("ranging over All allocates %.0f times", allocs)
	}
}

// TestNewSeriesFromMatchesAdd: a series built over a slice is the series
// Add builds from the same samples, to the last bit of the running sum
// and extrema, and it adopts the slice instead of copying it.
func TestNewSeriesFromMatchesAdd(t *testing.T) {
	f := func(vs []float64) bool {
		adopted := NewSeriesFrom(slices.Clone(vs))
		added := seriesOf(vs...)
		return adopted.Len() == added.Len() &&
			math.Float64bits(adopted.Sum()) == math.Float64bits(added.Sum()) &&
			math.Float64bits(adopted.Mean()) == math.Float64bits(added.Mean()) &&
			math.Float64bits(adopted.Min()) == math.Float64bits(added.Min()) &&
			math.Float64bits(adopted.Max()) == math.Float64bits(added.Max()) &&
			math.Float64bits(adopted.Median()) == math.Float64bits(added.Median()) &&
			slices.Equal(slices.Collect(adopted.All()), slices.Collect(added.All()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	slab := make([]float64, 1000)
	var s *Series
	if allocs := testing.AllocsPerRun(10, func() { s = NewSeriesFrom(slab) }); allocs != 1 || s.Len() != len(slab) {
		t.Fatalf("NewSeriesFrom allocates %.0f times, want 1: the series copied its samples", allocs)
	}
}
