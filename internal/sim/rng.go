package sim

import "math"

// RNG is a small, fast, deterministic random stream (splitmix64 core).
// Engines hand out independent named streams so that adding a new consumer
// of randomness in one subsystem never perturbs the draws seen by another —
// the property that keeps regenerated figures stable across refactors.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	// Avoid the all-zeros fixpoint and decorrelate small seeds.
	return &RNG{state: seed ^ 0x9e3779b97f4a7c15}
}

// RNG returns the engine's random stream for name, creating it on first
// use. The stream's seed is derived from the engine seed and the name via
// FNV-1a, so streams are independent and stable across runs.
func (e *Engine) RNG(name string) *RNG {
	if r, ok := e.rngs[name]; ok {
		return r
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r := NewRNG(e.seed ^ h)
	e.rngs[name] = r
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo,hi). It panics when hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a normal deviate with the given mean and standard
// deviation, via Box–Muller.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z)
}

// Exp returns an exponential deviate with the given mean. Mean must be
// positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a bounded Pareto deviate with shape alpha and minimum
// xm — the classic heavy-tailed model for flow sizes and latency spikes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("sim: Pareto with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNorm returns a log-normal deviate parameterized by the mean and
// stddev of the underlying normal.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// DurationRange returns a uniform duration in [lo,hi).
func (r *RNG) DurationRange(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo))
}

// NormDuration returns a normal duration deviate clamped at min.
func (r *RNG) NormDuration(mean, stddev, min Duration) Duration {
	d := Duration(r.Norm(float64(mean), float64(stddev)))
	if d < min {
		return min
	}
	return d
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
