package telemetry

import (
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"steelnet/internal/metrics"
	"steelnet/internal/sim"
)

// Label is one metric dimension (e.g. {"port", "2"}).
type Label struct {
	K, V string
}

// Labels is an ordered label set. Order is preserved in output so a
// registered metric renders the same way every run.
type Labels []Label

// L is shorthand for building a label set from alternating key/value
// strings: L("node", "sw0", "port", "1").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value count")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{K: kv[i], V: kv[i+1]})
	}
	return ls
}

// escapeLabelValue applies Prometheus label-value escaping: backslash,
// double quote, and newline are escaped; everything else (including
// UTF-8) passes through verbatim. Go's %q is NOT equivalent — it also
// escapes tabs and non-ASCII, which Prometheus treats as literal bytes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies Prometheus HELP-text escaping: backslash and
// newline only (quotes are literal in HELP lines).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	for _, r := range h {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// String renders the label set in Prometheus brace form, "" when empty.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric. Counters and gauges are func-backed —
// they read live component counters at read time, so registration adds
// nothing to the simulation hot path. The label set is rendered once,
// here, and never again.
type entry struct {
	name   string
	help   string
	kind   metricKind
	labels string         // Labels.String() at registration
	key    string         // name + labels: the metric's flat key
	readU  func() uint64  // counters
	readF  func() float64 // gauges
	hist   *AtomicHistogram
}

// Registry holds the run's metrics. Output ordering is by (name, labels)
// regardless of registration order, so snapshots are stable even when
// components register from map iteration; entries sharing a (name,
// labels) key keep their registration order.
//
// That order is established at registration — each entry is inserted at
// its sorted position — so a read is a plain walk that mutates nothing.
// Registration itself is unsynchronised: finish registering before other
// goroutines read. After that any number of goroutines may read at once,
// as long as the registered read funcs are themselves safe to call
// concurrently (the steelnetd hub registry's are all atomics; a
// simulation's are not, and are read on the simulation goroutine only).
type Registry struct {
	// entries is sorted by (name, labels). Pointers keep an insert's
	// memmove at 8 bytes per displaced entry: a Fig. 6 cell registers
	// thousands of metrics under -stats.
	entries []*entry
	// textLen is the length of the latest text render. The next render
	// starts from a buffer that size plus a little headroom, so it is
	// made once instead of grown from nothing. Atomic: concurrent
	// /metrics handlers render the same registry.
	textLen atomic.Int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// add inserts e after every entry that does not sort after it — the
// position a stable sort by (name, labels) would give it.
func (r *Registry) add(e *entry, labels Labels) {
	e.labels = labels.String()
	e.key = e.name + e.labels
	i := sort.Search(len(r.entries), func(i int) bool {
		o := r.entries[i]
		if o.name != e.name {
			return o.name > e.name
		}
		return o.labels > e.labels
	})
	r.entries = slices.Insert(r.entries, i, e)
}

// Counter registers a monotonically increasing value read by fn at
// read time. Nil registries ignore registration, so components can
// offer metrics unconditionally.
func (r *Registry) Counter(name string, labels Labels, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(&entry{name: name, help: help, kind: kindCounter, readU: fn}, labels)
}

// Gauge registers a point-in-time value read by fn at read time.
func (r *Registry) Gauge(name string, labels Labels, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(&entry{name: name, help: help, kind: kindGauge, readF: fn}, labels)
}

// AtomicHistogram is a fixed-bucket distribution safe for concurrent
// Observe from many goroutines: fan-out workers and HTTP handlers record
// latencies while Prometheus scrapes render the buckets. Observe is
// allocation-free — the bucket layout is fixed at registration. Values
// are int64 (nanoseconds, bytes, counts) so the sum can be a plain
// atomic.
type AtomicHistogram struct {
	bounds []float64       // upper bounds, ascending
	les    []string        // rendered bounds, "+Inf" appended
	counts []atomic.Uint64 // one per les entry
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewAtomicHistogram registers a histogram with the given ascending
// upper bucket bounds (an implicit +Inf bucket is appended). A nil
// registry still returns a working histogram so instrumentation points
// need no guard; it just never renders.
func (r *Registry) NewAtomicHistogram(name string, labels Labels, help string, bounds []float64) *AtomicHistogram {
	h := &AtomicHistogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	for i, b := range bounds {
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bounds not ascending")
		}
		h.les = append(h.les, strconv.FormatFloat(b, 'g', -1, 64))
	}
	h.les = append(h.les, "+Inf")
	if r != nil {
		r.add(&entry{name: name, help: help, kind: kindHistogram, hist: h}, labels)
	}
	return h
}

// Observe records one sample. Safe for concurrent use.
func (h *AtomicHistogram) Observe(v int64) {
	i := sort.SearchFloat64s(h.bounds, float64(v))
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observed samples.
func (h *AtomicHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed samples.
func (h *AtomicHistogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket containing it — a conservative estimate: the true value is
// at most the returned one. Returns the largest finite bound when the
// quantile lands in the +Inf bucket, and 0 when nothing was observed.
func (h *AtomicHistogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(count)))
	if target == 0 {
		target = 1
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= target {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// row is one reading handed to a formatter. A counter or gauge is one
// row; a histogram is one row per bucket (le set, u cumulative) and then
// a summary row (le empty, u the count, f the sum).
type row struct {
	*entry
	head bool    // first row of a metric name: HELP/TYPE go before it
	le   string  // bucket rows: the rendered upper bound
	u    uint64  // counter value, cumulative bucket count, sample count
	f    float64 // gauge value, histogram sum
}

// walk reads every metric once, in (name, labels) order, and hands the
// readings to fn. It is the only code that calls an entry's read funcs
// or loads a histogram's buckets on the registry's behalf; everything
// the registry exports is a formatter over it. Bucket rows are skipped
// (and their loads not made) unless buckets is set. Atomic histograms
// are read with atomic loads while writers keep observing: each row is
// exact at its own read, which is as consistent as exposition needs.
func (r *Registry) walk(buckets bool, fn func(row)) {
	for i, e := range r.entries {
		rw := row{entry: e, head: i == 0 || r.entries[i-1].name != e.name}
		switch e.kind {
		case kindCounter:
			rw.u = e.readU()
		case kindGauge:
			rw.f = e.readF()
		case kindHistogram:
			if buckets {
				for j := range e.hist.counts {
					rw.le = e.hist.les[j]
					rw.u += e.hist.counts[j].Load()
					fn(rw)
					rw.head = false
				}
				rw.le = ""
			}
			rw.u, rw.f = e.hist.count.Load(), float64(e.hist.sum.Load())
		}
		fn(rw)
	}
}

// appendSample appends "name+suffix+labels " — a sample line up to its
// value.
func appendSample(b []byte, rw row, suffix string) []byte {
	b = append(b, rw.name...)
	b = append(b, suffix...)
	b = append(b, rw.labels...)
	return append(b, ' ')
}

func appendUintLine(b []byte, v uint64) []byte {
	return append(strconv.AppendUint(b, v, 10), '\n')
}

func appendFloatLine(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendProm formats rw as Prometheus text exposition. Only the first
// entry per metric name emits HELP/TYPE.
func appendProm(b []byte, rw row) []byte {
	if rw.head {
		if rw.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, rw.name...)
			b = append(b, ' ')
			b = append(b, escapeHelp(rw.help)...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, rw.name...)
		b = append(b, ' ')
		b = append(b, [...]string{"counter", "gauge", "histogram"}[rw.kind]...)
		b = append(b, '\n')
	}
	switch {
	case rw.le != "":
		// The le label joins the entry's rendered set: {a="b"} becomes
		// {a="b",le="10"}. Bounds never need escaping.
		b = append(b, rw.name...)
		b = append(b, "_bucket"...)
		if rw.labels == "" {
			b = append(b, `{le="`...)
		} else {
			b = append(b, rw.labels[:len(rw.labels)-1]...)
			b = append(b, `,le="`...)
		}
		b = append(b, rw.le...)
		b = append(b, `"} `...)
		return appendUintLine(b, rw.u)
	case rw.kind == kindHistogram:
		b = appendFloatLine(appendSample(b, rw, "_sum"), rw.f)
		return appendUintLine(appendSample(b, rw, "_count"), rw.u)
	case rw.kind == kindCounter:
		return appendUintLine(appendSample(b, rw, ""), rw.u)
	default:
		return appendFloatLine(appendSample(b, rw, ""), rw.f)
	}
}

// textBuf returns an empty buffer with room for the latest render plus
// 1/32 headroom: values change digits between reads, rarely by more.
func (r *Registry) textBuf() []byte {
	n := r.textLen.Load()
	return make([]byte, 0, n+n/32)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	b := r.textBuf()
	r.walk(true, func(rw row) { b = appendProm(b, rw) })
	r.textLen.Store(int64(len(b)))
	_, err := w.Write(b)
	return err
}

// Snapshot renders the registry as a stable ASCII table — the -stats
// output of the CLIs. Histograms render one row per bucket plus a
// count/sum summary row.
func (r *Registry) Snapshot() string {
	if r == nil {
		return ""
	}
	t := metrics.NewTable("metrics", "metric", "labels", "value")
	r.walk(true, func(rw row) {
		u, f := strconv.FormatUint(rw.u, 10), strconv.FormatFloat(rw.f, 'g', -1, 64)
		switch {
		case rw.le != "":
			t.AddRow(rw.name+"_le_"+rw.le, rw.labels, u)
		case rw.kind == kindHistogram:
			t.AddRow(rw.name+"_count", rw.labels, u)
			t.AddRow(rw.name+"_sum", rw.labels, f)
		case rw.kind == kindCounter:
			t.AddRow(rw.name, rw.labels, u)
		default:
			t.AddRow(rw.name, rw.labels, f)
		}
	})
	return t.String()
}

// MetricValue is one metric's numeric value at read time, in the
// registry's stable (name, labels) order. Histograms contribute their
// _count and _sum rows.
type MetricValue struct {
	Name   string
	Labels string
	// Key is Name+Labels, the metric's flat name in tag spaces, delta
	// maps and history. Counters and gauges carry the string built at
	// registration, so consumers never re-concatenate it per read.
	Key   string
	Value float64
}

// appendValue formats rw as its MetricValue rows.
func appendValue(vs []MetricValue, rw row) []MetricValue {
	switch rw.kind {
	case kindHistogram:
		count, sum := rw.name+"_count", rw.name+"_sum"
		return append(vs,
			MetricValue{count, rw.labels, count + rw.labels, float64(rw.u)},
			MetricValue{sum, rw.labels, sum + rw.labels, rw.f})
	case kindCounter:
		return append(vs, MetricValue{rw.name, rw.labels, rw.key, float64(rw.u)})
	default:
		return append(vs, MetricValue{rw.name, rw.labels, rw.key, rw.f})
	}
}

// Values reads every registered metric once, in snapshot order. This is
// the numeric view behind the live endpoint's delta stream; like every
// other read of func-backed entries it must happen on the goroutine that
// owns the components they read.
func (r *Registry) Values() []MetricValue {
	if r == nil {
		return nil
	}
	return r.AppendValues(make([]MetricValue, 0, len(r.entries)))
}

// AppendValues is Values appended to vs: a reader that keeps its slice
// between reads (a publisher, every slice) reads without allocating.
func (r *Registry) AppendValues(vs []MetricValue) []MetricValue {
	if r == nil {
		return vs
	}
	r.walk(false, func(rw row) { vs = appendValue(vs, rw) })
	return vs
}

// Export is WritePrometheus and AppendValues over one walk: every metric
// is read once and both views describe the same instant. It is what a
// publisher that needs the text snapshot and the numbers calls. The text
// is a new buffer, sized like WritePrometheus's, that the caller owns.
func (r *Registry) Export(vs []MetricValue) (text []byte, values []MetricValue) {
	if r == nil {
		return nil, vs
	}
	b := r.textBuf()
	r.walk(true, func(rw row) {
		b = appendProm(b, rw)
		if rw.le == "" {
			vs = appendValue(vs, rw)
		}
	})
	r.textLen.Store(int64(len(b)))
	return b, vs
}

// RegisterEngineMetrics exposes the engine's internals (events fired,
// heap depth and high-water, live event handles, arena footprint) on r.
func RegisterEngineMetrics(r *Registry, e *sim.Engine) {
	if r == nil || e == nil {
		return
	}
	r.Counter("sim_events_fired_total", nil, "events executed by the engine", func() uint64 { return e.Stats().EventsFired })
	r.Gauge("sim_heap_len", nil, "pending events in the scheduler heap", func() float64 { return float64(e.Stats().HeapLen) })
	r.Gauge("sim_heap_high_water", nil, "maximum scheduler heap depth seen", func() float64 { return float64(e.Stats().HeapHighWater) })
	r.Gauge("sim_arena_chunks", nil, "event arena chunks allocated", func() float64 { return float64(e.Stats().ArenaChunks) })
	r.Gauge("sim_now_ns", nil, "current simulated time", func() float64 { return float64(e.Now()) })
}
