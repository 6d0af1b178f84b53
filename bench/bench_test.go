package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// Toy sizes: every code path of the four workloads in about a second.
var (
	figsToy = figsSize{cycles: 120, fig5Horizon: 3 * time.Second, clients: []int{8},
		fig6Horizon: 50 * time.Millisecond, ebpfCalls: 500, minReps: 2, setupSamples: 2}
	campusToy = campusSize{topo: topo.CampusConfig{Cells: 4, SwitchesPerCell: 8, HostsPerSwitch: 1, Spines: 2},
		horizon: 2 * sim.Millisecond, period: 100 * sim.Microsecond, minReps: 2, setupSamples: 1}
	streamToy = streamSize{sims: 2, horizon: 400 * time.Millisecond, slice: 50 * time.Millisecond,
		setupSamples: 1, connectCycles: 5, tracedCycles: 5, minReps: 2}
	queryToy = querySize{runs: 2, horizon: 400 * time.Millisecond, slice: 50 * time.Millisecond,
		liveHorizon: 600 * time.Second, openRate: 400, windows: 2, setupSamples: 2, handlerCalls: 3}
)

func toyParams(traced bool) params {
	return params{seed: 5, seconds: 0.4, trace: traced, workers: 2, conns: 2, start: time.Now()}
}

// TestSmoke runs all four workloads, untraced and traced, at toy sizes:
// no operation may fail, every output check must pass, and the driver
// line must carry exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run of the four workloads skipped in -short mode")
	}
	runs := []struct {
		name string
		run  func(p params) (*result, error)
	}{
		{"paper_figs", func(p params) (*result, error) { return runFigs(figsToy, p) }},
		{"campus_10k", func(p params) (*result, error) { return runCampus(campusToy, p) }},
		{"gateway_stream", func(p params) (*result, error) { return runStream(streamToy, p) }},
		{"gateway_query", func(p params) (*result, error) { return runQuery(queryToy, p) }},
	}
	for _, w := range runs {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := w.run(toyParams(traced))
				if err != nil {
					t.Fatal(err)
				}
				res.set("peak_rss_mb", peakRSSMB(), 1)
				if res.workload != w.name {
					t.Errorf("workload = %q", res.workload)
				}
				if res.attempted == 0 || res.failed != 0 || !res.correct() {
					t.Errorf("attempted=%d failed=%d problems=%v", res.attempted, res.failed, res.problems)
				}
				line, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var cr childResult
				if err := json.Unmarshal([]byte(line), &cr); err != nil {
					t.Fatalf("driver line %q: %v", line, err)
				}
				if len(cr.Metrics) != len(res.defs()) {
					t.Errorf("driver line has %d metrics, want %d", len(cr.Metrics), len(res.defs()))
				}
				if !traced {
					for _, d := range endToEnd {
						if cr.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.Name, cr.Metrics[d.Name].Value)
						}
					}
					return
				}
				if len(res.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				var report bytes.Buffer
				res.writeReport(&report)
				if strings.Contains(report.String(), "UNDECLARED") {
					t.Errorf("a measured metric is missing from the tables:\n%s", report.String())
				}
				var buf bytes.Buffer
				writeBudget(&buf, w.name, res.spans, time.Duration(res.untracedWall*float64(time.Second)))
				if !strings.Contains(buf.String(), "residual") {
					t.Errorf("budget table has no residual line:\n%s", buf.String())
				}
			})
		}
	}
}

// TestFlagsAndUnknownWorkload covers the command line without running
// a workload.
func TestFlagsAndUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and main.go in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in main.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: JSON %+v, main.go {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("JSON has %d+%d metrics, tables %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != bounds[d.Name] {
			t.Errorf("end_to_end %d: JSON %+v, table %+v bound %v", i, j, d, bounds[d.Name])
		}
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer %d: JSON %+v, table %+v", i, j, d)
		}
		if seen[d.Name] {
			t.Errorf("per_layer name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestTailPercentileRule(t *testing.T) {
	// A percentile may be quoted only with ten samples beyond it, so the
	// highest one a sample supports rises with its size.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false}, // 9 beyond the median
		{20, 0.50, true},
		{99, 0.90, false},
		{100, 0.90, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{100000, 0.9999, true}, // 0.9999*100000 is a hair above 99990 in floating point
	} {
		if got := beyond(c.n, c.q) >= 10; got != c.want {
			t.Errorf("p%v of %d samples: supported = %v (%d beyond), want %v", c.q*100, c.n, got, beyond(c.n, c.q), c.want)
		}
	}
	// 1..1000: the 99th percentile is 990 and exactly ten samples lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := supportedPercentile(xs, 0.999); got != 0 {
		t.Errorf("p99.9 of 1000 samples = %v, want 0 (unsupported)", got)
	}
	if got := supportedPercentile(xs, 0.99); got != 990 {
		t.Errorf("supported p99 = %v, want 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}

func TestSSEReader(t *testing.T) {
	stream := "event: hello\ndata: {\"subscribers\":1}\n\n" +
		": a comment\n\n" + // comment-only block: not a frame
		"event: tags\r\ndata: {\"run\":\"a\",\r\n" + // CRLF, two data lines
		"data: \"seq\":1}\r\n\r\n" +
		"id: 7\nretry: 10\ndata:x\n\n" + // unknown fields skipped; no space after the colon
		"event: cut\ndata: partial"
	r := newSSEReader(strings.NewReader(stream))
	type frame struct{ event, data string }
	var got []frame
	total := 0
	var err error
	for {
		var ev, data []byte
		var n int
		ev, data, n, err = r.next()
		total += n
		if err != nil {
			break
		}
		got = append(got, frame{string(ev), string(data)})
	}
	want := []frame{
		{"hello", `{"subscribers":1}`},
		{"tags", "{\"run\":\"a\",\n\"seq\":1}"},
		{"", "x"},
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err != io.ErrUnexpectedEOF {
		t.Errorf("truncated stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if total != len(stream) {
		t.Errorf("consumed %d bytes, stream has %d", total, len(stream))
	}
	if _, _, _, err := newSSEReader(strings.NewReader("")).next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	if got := dueTime(0, 2000); got != 0 {
		t.Errorf("request 0 due at %v", got)
	}
	if got := dueTime(2000, 2000); got != time.Second {
		t.Errorf("request 2000 at 2000/s due at %v, want 1s", got)
	}
	if got := dueTime(3, 2000); got != 1500*time.Microsecond {
		t.Errorf("request 3 due at %v, want 1.5ms", got)
	}
	// Lateness is relative to the due time and forgives timer jitter.
	due := dueTime(10, 1000)
	if lateBy(due+lateSlack, due) {
		t.Error("a send exactly lateSlack after its due time counted as late")
	}
	if !lateBy(due+lateSlack+time.Microsecond, due) {
		t.Error("a send past lateSlack not counted as late")
	}
	if lateBy(due-time.Millisecond, due) {
		t.Error("an early send counted as late")
	}
	// Windows are cut by due time, so a request that stalled is charged
	// to the window it was due in.
	samples := []sample{
		{dueNS: int64(100 * time.Millisecond), latUS: 10},
		{dueNS: int64(900 * time.Millisecond), latUS: 5000}, // due in window 0, finished in window 1
		{dueNS: int64(1100 * time.Millisecond), latUS: 20},
		{dueNS: int64(2 * time.Second), latUS: 30}, // on the boundary: last window
	}
	counts := windowed(samples, 2*time.Second, 2, func(w []sample, d time.Duration) float64 {
		if d != time.Second {
			t.Errorf("window length %v", d)
		}
		return float64(len(w))
	})
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("window counts = %v, want [2 2]", counts)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] has children a [10,40] and b [50,90]; a has child c [20,30].
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 20, End: 30, Parent: 1},
		{Name: "a", Start: 50, End: 90, Parent: 0},
		{Name: "extra", Start: 92, End: 98, Parent: 0, Rep: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 40 - 6, 30 - 10, 10, 40, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	// Self times of a tree sum to the root's duration.
	var total int64
	for _, s := range self {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
	// The budget folds rep 0 by name, largest first, and leaves rep 1 out.
	rows := budget(spans)
	if len(rows) != 3 || rows[0].Name != "a" || rows[0].Calls != 2 || rows[0].Self != 60 {
		t.Errorf("budget = %+v", rows)
	}
	if got := tracedWall(spans); got != 94 {
		t.Errorf("tracedWall = %d, want 94 (the root minus the rep-1 extra)", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder("w")
	rec.do("outer", func() {
		rec.do("inner", func() {})
		rec.rep = 1
		rec.do("inner", func() {})
		rec.rep = 0
	})
	if len(rec.spans) != 3 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if rec.spans[0].Parent != -1 || rec.spans[1].Parent != 0 || rec.spans[2].Parent != 0 {
		t.Errorf("parents = %d %d %d", rec.spans[0].Parent, rec.spans[1].Parent, rec.spans[2].Parent)
	}
	if rec.spans[2].Rep != 1 || rec.spans[1].Workload != "w" {
		t.Errorf("span fields = %+v", rec.spans)
	}
	if rec.count("inner") != 2 || rec.total("outer") < rec.total("inner") {
		t.Errorf("count/total: %d %v %v", rec.count("inner"), rec.total("outer"), rec.total("inner"))
	}
	var nilRec *recorder
	ran := false
	nilRec.do("x", func() { ran = true })
	if !ran {
		t.Error("a nil recorder did not run the function")
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 3 || back[1].Name != "inner" {
		t.Errorf("span JSON round trip: %v %+v", err, back)
	}
}

func TestDriverLine(t *testing.T) {
	res := newResult("w", false)
	res.op("")
	if _, err := res.driverLine(); err == nil {
		t.Error("a run missing end-to-end metrics produced a driver line")
	}
	for _, d := range endToEnd {
		res.set(d.Name, 1.25, 3)
	}
	res.set("fig4_wall_s", 2, 1) // measured, but not an end-to-end metric
	line, err := res.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var cr childResult
	if err := json.Unmarshal([]byte(line), &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Correct || cr.Attempted != 1 || cr.Failed != 0 || len(cr.Metrics) != len(endToEnd) {
		t.Errorf("driver line = %s", line)
	}
	if m := cr.Metrics["setup_s"]; m.Value != 1.25 || m.Unit != "s" {
		t.Errorf("setup_s = %+v", m)
	}
	res.op("boom")
	line, _ = res.driverLine()
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("failed run: %s", line)
	}
	// A traced run reports every per-layer metric, 0 where not measured.
	tr := newResult("w", true)
	tr.op("")
	tr.set("bench.calib_ns", 5, 1)
	line, err = tr.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var tcr childResult
	if err := json.Unmarshal([]byte(line), &tcr); err != nil {
		t.Fatal(err)
	}
	if _, ok := tcr.Metrics["sim.fig6_events"]; !ok || len(tcr.Metrics) != len(perLayer) || tcr.Metrics["bench.calib_ns"].Value != 5 {
		t.Errorf("traced driver line has %d metrics, want %d with the unmeasured ones at 0", len(tcr.Metrics), len(perLayer))
	}
}
