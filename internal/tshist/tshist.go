// Package tshist is the fleet's historical telemetry store: a bounded
// in-memory time-series recorder with deterministic downsampling tiers.
// Live telemetry in this repo is fire-and-forget — miss the SSE frame
// and the datum is gone — so the recorder sits on the same safe-point
// publish path and keeps a queryable past: tier 0 holds the most recent
// samples at full (slice) resolution, and each coarser tier folds a
// fixed number of finer points into one, RRD-style, so old history
// degrades in resolution instead of vanishing.
//
// Determinism is the design constraint everything here serves. Folding
// happens on append *counts*, never on wall time; fold aggregation is a
// fixed-order mean; and queries thin by simulated-time step with a
// fixed keep-first rule. A recorder fed the same (t, v) stream
// therefore always holds the same points and answers every query
// byte-identically — across reruns, across -max-concurrent, and across
// pause/save/resume (the resumed recorder's stream concatenates with
// the pre-pause one's).
//
// The append path is 0 allocs/op steady state: rings and fold
// accumulators are allocated when a metric is first seen, and from then
// on Append is a map lookup and a few stores. The mutex is uncontended
// in the common case (one writer — the run goroutine — and occasional
// HTTP readers).
package tshist

import "sync"

// Default geometry: three tiers, 512 points each, folding 8:1. At a
// 50 ms publish slice that is ~25 s of full-resolution history, ~3.4
// minutes at 400 ms, and ~27 minutes at 3.2 s — about 36 KiB per
// metric, bounded regardless of run length.
const (
	DefaultCapacity = 512
	DefaultTiers    = 3
	DefaultFold     = 8
)

// Point is one recorded sample: simulated time and value.
type Point struct {
	TNS int64
	V   float64
}

// ring is a fixed-capacity overwrite-oldest point buffer.
type ring struct {
	pts  []Point
	head int // index of the oldest point
	n    int
}

func (r *ring) push(p Point) {
	if r.n < len(r.pts) {
		r.pts[(r.head+r.n)%len(r.pts)] = p
		r.n++
		return
	}
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
}

// at returns the i-th oldest retained point.
func (r *ring) at(i int) Point { return r.pts[(r.head+i)%len(r.pts)] }

// Series is one metric's tiered history. Tier 0 is raw appends; tier
// k+1 receives one point per fold appends to tier k — the mean of the
// folded values, timestamped at the last folded point, so a coarse
// point never claims a time its inputs had not reached.
type Series struct {
	tiers []ring
	// fold accumulators, one per tier that feeds a coarser one.
	acc []foldAcc
	n   uint64 // total raw appends
}

type foldAcc struct {
	sum float64
	cnt int
	t   int64
}

func newSeries(capacity, tiers int) *Series {
	s := &Series{tiers: make([]ring, tiers), acc: make([]foldAcc, tiers-1)}
	for i := range s.tiers {
		s.tiers[i].pts = make([]Point, capacity)
	}
	return s
}

// append records one sample and cascades fold completions upward.
func (s *Series) append(fold int, p Point) {
	s.n++
	s.tiers[0].push(p)
	for k := 0; k < len(s.acc); k++ {
		a := &s.acc[k]
		a.sum += p.V
		a.cnt++
		a.t = p.TNS
		if a.cnt < fold {
			return
		}
		p = Point{TNS: a.t, V: a.sum / float64(fold)}
		*a = foldAcc{}
		s.tiers[k+1].push(p)
	}
}

// Len returns the total number of raw samples ever appended.
func (s *Series) Len() uint64 { return s.n }

// Recorder is a bounded store of many named series sharing one
// geometry. Safe for one appender plus concurrent readers.
type Recorder struct {
	mu       sync.Mutex
	series   map[string]*Series
	order    []string // first-seen order
	capacity int
	tiers    int
	fold     int
}

// NewRecorder builds a recorder; non-positive parameters take the
// package defaults. tiers is clamped to at least 1.
func NewRecorder(capacity, tiers, fold int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if tiers <= 0 {
		tiers = DefaultTiers
	}
	if fold <= 1 {
		fold = DefaultFold
	}
	return &Recorder{
		series:   map[string]*Series{},
		capacity: capacity,
		tiers:    tiers,
		fold:     fold,
	}
}

// Append records one sample for the named metric. First use of a name
// allocates its rings; every later append is allocation-free.
func (r *Recorder) Append(name string, tns int64, v float64) {
	r.mu.Lock()
	s := r.series[name]
	if s == nil {
		s = newSeries(r.capacity, r.tiers)
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.append(r.fold, Point{TNS: tns, V: v})
	r.mu.Unlock()
}

// Names returns the recorded metric names in first-seen order — the
// deterministic order the publish path appends them in.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Samples returns the total raw appends for one metric (0 if unknown).
func (r *Recorder) Samples(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.series[name]; s != nil {
		return s.n
	}
	return 0
}

// Query returns the named metric's points with TNS >= since, thinned so
// consecutive returned points are at least step ns apart (step <= 0
// returns every retained point). The finest tier that still covers
// `since` answers: recent windows come back at full resolution, older
// ones at the first coarse tier whose ring reaches back far enough.
// The returned step is the tier's nominal resolution multiplier (1,
// fold, fold², …), so callers can tell which tier answered. ok is
// false for an unknown metric.
func (r *Recorder) Query(name string, since int64, step int64) (pts []Point, tierFold int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[name]
	if s == nil {
		return nil, 0, false
	}
	// Pick the finest tier that has lost nothing after `since`: a ring
	// that never wrapped still holds the whole history, and one that
	// did covers the window iff its oldest survivor is <= since. When
	// no tier reaches back far enough the coarsest non-empty one —
	// the deepest history retained at any resolution — answers.
	tier := 0
	tierFold = 1
	f := int64(1)
	for k := 0; k < len(s.tiers) && s.tiers[k].n > 0; k++ {
		tier, tierFold = k, f
		if s.tiers[k].n < len(s.tiers[k].pts) || s.tiers[k].at(0).TNS <= since {
			break
		}
		f *= int64(r.fold)
	}
	rg := &s.tiers[tier]
	var lastKept int64
	first := true
	for i := 0; i < rg.n; i++ {
		p := rg.at(i)
		if p.TNS < since {
			continue
		}
		// Subtract, never add: step comes straight from a URL and
		// lastKept+step overflows for a large one.
		if !first && step > 0 && p.TNS-lastKept < step {
			continue
		}
		pts = append(pts, p)
		lastKept = p.TNS
		first = false
	}
	return pts, tierFold, true
}
