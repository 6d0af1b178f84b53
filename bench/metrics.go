package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json at the repo
// root lists the same names, units and directions (a test compares the
// two), and adds the regression bound of each end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
}

// endToEnd is what a user of the system feels. Every workload reports
// every one of them; what each measures per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"response_ms", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// bounds is the share of the parent's median by which each end-to-end
// metric may get worse before a change counts as a regression; the
// same numbers are in BENCHMARK.json. README.md ("Steadiness") says
// why the wall-clock and resident-set bounds are as wide as allowed.
var bounds = map[string]float64{
	"setup_s":     0.25,
	"response_ms": 0.25,
	"alloc_mb":    0.10,
	"peak_rss_mb": 0.25,
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// perLayer is reported by traced runs only, without bounds. A metric
// belongs to the workload that exercises its layer and reads 0 on the
// others. The first block carries each workload's own user-visible
// numbers under the names the issue gave them.
var perLayer = []metricDef{
	{"fig4_wall_s", "s", "lower"},
	{"fig5_wall_s", "s", "lower"},
	{"fig6_wall_s", "s", "lower"},
	{"campus_run_s", "s", "lower"},
	{"stream_msgs_per_s", "msg/s", "higher"},
	{"sse_first_byte_us", "us", "lower"},
	{"query_rps", "req/s", "higher"},
	{"query_p50_us", "us", "lower"},

	// paper_figs
	{"reflection.delay_s", "s", "lower"},
	{"reflection.jitter_s", "s", "lower"},
	{"ebpf.run_ns", "ns", "lower"},
	{"instaplc.advance_s", "s", "lower"},
	{"sim.fig5_events", "count", "lower"},
	{"checkpoint.save_us", "us", "lower"},
	{"checkpoint.restore_s", "s", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"mltopo.cells", "count", "higher"},
	{"mltopo.cell_s_max", "s", "lower"},
	{"mltopo.cell_s_sum", "s", "lower"},
	{"mltopo.build_s_sum", "s", "lower"},
	{"sim.fig6_events", "count", "lower"},
	{"sim.fig6_ns_per_event", "ns", "lower"},
	{"sweep.efficiency", "ratio", "higher"},

	// campus_10k
	{"core.campus_build_s", "s", "lower"},
	{"core.campus_result_ms", "ms", "lower"},
	{"core.campus_build_alloc_mb", "MB", "lower"},
	{"sim.campus_events", "count", "lower"},
	{"sim.campus_ns_per_event", "ns", "lower"},
	{"sim.shard.windows", "count", "lower"},
	{"sim.shard.messages", "count", "lower"},
	{"sim.shard.busy_s", "s", "lower"},
	{"sim.shard.barrier_wait_s", "s", "lower"},
	{"sim.shard.imbalance", "ratio", "lower"},
	{"sim.shard.speedup", "ratio", "higher"},
	{"simnet.delivered", "count", "higher"},
	{"simnet.dropped", "count", "lower"},
	{"int.observations", "count", "higher"},
	{"int.overhead_frac", "ratio", "lower"},

	// gateway_stream
	{"core.headless_build_ms", "ms", "lower"},
	{"core.headless_step_us", "us", "lower"},
	{"core.headless_sample_us", "us", "lower"},
	{"telemetry.values_us", "us", "lower"},
	{"telemetry.prom_render_us", "us", "lower"},
	{"obs.broker_publish_us", "us", "lower"},
	{"steelnetd.rule_eval_us", "us", "lower"},
	{"tshist.append_ns", "ns", "lower"},
	{"steelnetd.hub_publish_us", "us", "lower"},
	{"steelnetd.journal_record_ns", "ns", "lower"},
	{"steelnetd.drive_residual_frac", "ratio", "lower"},
	{"steelnetd.sse_drain_ms", "ms", "lower"},
	{"steelnetd.sse_lag_p50_us", "us", "lower"},
	{"steelnetd.sse_lag_p99_us", "us", "lower"},
	{"steelnetd.hub.published", "count", "higher"},
	{"steelnetd.hub.dropped", "count", "lower"},
	{"steelnetd.hub.evicted", "count", "lower"},
	{"steelnetd.hub.queue_high_water", "count", "lower"},
	{"steelnetd.hub.fanout_p99_ns", "ns", "lower"},
	{"steelnetd.firings", "count", "higher"},
	{"steelnetd.journal.records", "count", "higher"},
	{"steelnetd.sse_bytes", "B", "lower"},
	{"steelnetd.run_start_ms", "ms", "lower"},
	{"steelnetd.sse_first_byte_p99_us", "us", "lower"},

	// gateway_query
	{"steelnetd.http.runs.p50_us", "us", "lower"},
	{"steelnetd.http.run.p50_us", "us", "lower"},
	{"steelnetd.http.history_names.p50_us", "us", "lower"},
	{"steelnetd.http.history_series.p50_us", "us", "lower"},
	{"steelnetd.http.history_prom.p50_us", "us", "lower"},
	{"steelnetd.http.run_metrics.p50_us", "us", "lower"},
	{"steelnetd.http.metrics.p50_us", "us", "lower"},
	{"steelnetd.http.journal.p50_us", "us", "lower"},
	{"steelnetd.http.backend_log.p50_us", "us", "lower"},
	{"steelnetd.http.healthz.p50_us", "us", "lower"},
	{"steelnetd.handler_p50_us", "us", "lower"},
	{"steelnetd.http.socket_share", "ratio", "lower"},
	{"tshist.query_us", "us", "lower"},
	{"steelnetd.http.p99_us", "us", "lower"},
	{"steelnetd.http.p999_us", "us", "lower"},
	{"steelnetd.http.late_frac", "ratio", "lower"},
	{"steelnetd.http.live_slowdown", "ratio", "lower"},

	// every workload
	{"bench.calib_ns", "ns", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V       float64
	N       int
	Samples []float64
}

// result is one workload run: operation counts, output-check problems
// and every metric measured, keyed by name.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	problems  []string
	values    map[string]value
	// spans and untracedWall feed the budget table of a traced run.
	spans        []span
	untracedWall float64 // seconds
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) { r.values[name] = value{V: v, N: n} }

// median sets name to the median of xs and returns it. A handful of
// samples is kept and printed beside the median, so a reader sees the
// spread a median hides.
func (r *result) median(name string, xs []float64) float64 {
	m := median(xs)
	v := value{V: m, N: len(xs)}
	if len(xs) <= 12 {
		v.Samples = xs
	}
	r.values[name] = v
	return m
}

// fastest sets name to the smallest of xs — the fastest rep — and
// returns it. Interference from other tenants of the machine only ever
// adds time, so the fastest of a few reps is the steadiest estimate of
// what the code costs; the other samples are printed beside it.
func (r *result) fastest(name string, xs []float64) float64 {
	m := sorted(xs)[0]
	r.values[name] = value{V: m, N: len(xs), Samples: xs}
	return m
}

// op counts one attempted operation; a non-empty problem marks it
// failed and is printed loudly.
func (r *result) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

func (r *result) correct() bool { return r.failed == 0 }

// defs returns the metric list this run reports: end-to-end for an
// untraced run, per-layer for a traced one.
func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// driverLine renders the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func (r *result) driverLine() (string, error) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, d := range r.defs() {
		v, ok := r.values[d.Name]
		if !ok && !r.traced {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.Name)
		}
		out.Metrics[d.Name] = jm{Value: v.V, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeReport prints every measured metric by name with its unit and
// sample count, end-to-end first, then the per-layer ones.
func (r *result) writeReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d correct=%v\n", r.workload, r.attempted, r.failed, r.correct())
	printed := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.values[d.Name]; ok {
				fmt.Fprintf(w, "  %-40s %16.6f %-6s n=%d", d.Name, v.V, d.Unit, v.N)
				if len(v.Samples) > 1 {
					fmt.Fprintf(w, "  %.4g", v.Samples)
				}
				fmt.Fprintln(w)
				printed[d.Name] = true
			}
		}
	}
	// Anything measured but not declared is a bug in the tables above.
	var stray []string
	for name := range r.values {
		if !printed[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		fmt.Fprintf(w, "  UNDECLARED: %s\n", strings.Join(stray, " "))
	}
}
