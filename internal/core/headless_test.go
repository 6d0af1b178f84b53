package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	intnet "steelnet/internal/int"
)

func TestHeadlessConfigDefaults(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Horizon != 3*time.Second || cfg.Slice != 50*time.Millisecond {
		t.Fatalf("defaults %v/%v, want 3s/50ms", cfg.Horizon, cfg.Slice)
	}
}

func TestHeadlessConfigErrors(t *testing.T) {
	bad := []HeadlessConfig{
		{Horizon: 100 * time.Millisecond, Slice: 200 * time.Millisecond},
		{Faults: "not a plan"},
		{Faults: "hoststall:nosuch@1ms+1ms"}, // parses; the scenario has no such host
		{SLO: "not a plan"},
	}
	for i, cfg := range bad {
		if _, err := NewHeadless(cfg); err == nil {
			t.Errorf("case %d: NewHeadless(%+v) succeeded", i, cfg)
		}
	}
}

// TestHeadlessStepGrid pins the slice grid: seq counts boundaries from
// 1, the final slice clamps to the horizon, and stepping past done is a
// no-op.
func TestHeadlessStepGrid(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 220 * time.Millisecond, Slice: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d.Done() {
		t.Fatal("done before the first step")
	}
	var steps int
	for !d.Step() {
		steps++
		s := d.Sample()
		if s.Seq != uint64(steps) {
			t.Fatalf("seq %d after %d steps", s.Seq, steps)
		}
		if s.SimNS != int64(steps)*int64(50*time.Millisecond) {
			t.Fatalf("sim_ns %d at step %d", s.SimNS, steps)
		}
	}
	// 220ms/50ms = 4 full slices plus a clamped 20ms tail.
	final := d.Sample()
	if final.Seq != 5 || final.SimNS != int64(220*time.Millisecond) {
		t.Fatalf("final sample seq=%d sim_ns=%d, want 5 at the horizon", final.Seq, final.SimNS)
	}
	if !d.Step() || !d.Done() {
		t.Error("Step after done must keep reporting done")
	}
	if d.Sample().Seq != 5 {
		t.Error("Step after done advanced the cursor")
	}
}

func TestHeadlessSampleNamespaces(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 400 * time.Millisecond, Slice: 50 * time.Millisecond, SLO: "latency:*<1µs"})
	if err != nil {
		t.Fatal(err)
	}
	for !d.Step() {
	}
	s := d.Sample()
	if len(s.Digests) == 0 || len(s.Loss) == 0 || len(s.Breaches) == 0 {
		t.Fatalf("sample missing sections: %d digests, %d loss, %d breaches",
			len(s.Digests), len(s.Loss), len(s.Breaches))
	}
	var haveMetric, haveINT, haveLoss, haveSLO bool
	for _, tag := range s.Tags {
		switch {
		case strings.HasPrefix(tag.Name, "steelnet_host_rx_total{"):
			haveMetric = true
		case strings.HasPrefix(tag.Name, "int/") && strings.HasSuffix(tag.Name, "/mean_ns"):
			haveINT = true
		case strings.HasPrefix(tag.Name, "loss/"):
			haveLoss = true
			if tag.Value < 0 || tag.Value > 1 {
				t.Errorf("loss fraction %q = %g out of [0,1]", tag.Name, tag.Value)
			}
		case tag.Name == "slo/breaches":
			haveSLO = true
			if tag.Value != float64(len(s.Breaches)) {
				t.Errorf("slo/breaches = %g, want %d", tag.Value, len(s.Breaches))
			}
		}
	}
	if !haveMetric || !haveINT || !haveLoss || !haveSLO {
		t.Fatalf("tag namespaces missing: metric=%v int=%v loss=%v slo=%v",
			haveMetric, haveINT, haveLoss, haveSLO)
	}
}

func TestHeadlessBaselineRun(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 400 * time.Millisecond, Slice: 100 * time.Millisecond, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	for !d.Step() {
	}
	s := d.Sample()
	if len(s.Digests) != 0 {
		t.Errorf("baseline run collected %d INT digests, want none", len(s.Digests))
	}
	if s.Breaches != nil {
		t.Errorf("breaches without an SLO plan: %v", s.Breaches)
	}
	if len(s.Tags) == 0 {
		t.Error("baseline run sampled no tags")
	}
}

func TestHeadlessReplayDeterminism(t *testing.T) {
	sample := func() []flatSample {
		d, err := NewHeadless(HeadlessConfig{Seed: 7, Horizon: 400 * time.Millisecond, Slice: 50 * time.Millisecond, SLO: "latency:*<1µs"})
		if err != nil {
			t.Fatal(err)
		}
		var out []flatSample
		for !d.Step() {
			out = append(out, flatten(d.Sample()))
		}
		return append(out, flatten(d.Sample()))
	}
	a, b := sample(), sample()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same spec sampled differently")
	}
}

// flatSample snapshots a Sample into pure values: Digests are live
// collector pointers that keep mutating as the run advances, but their
// state is already flattened into the int/ tags, so comparisons use
// everything else.
type flatSample struct {
	Seq      uint64
	SimNS    int64
	Tags     []Tag
	Breaches []intnet.Breach
	Loss     []SinkLoss
}

func flatten(s Sample) flatSample {
	return flatSample{
		Seq:      s.Seq,
		SimNS:    s.SimNS,
		Tags:     append([]Tag(nil), s.Tags...),
		Breaches: append([]intnet.Breach(nil), s.Breaches...),
		Loss:     append([]SinkLoss(nil), s.Loss...),
	}
}

// TestHeadlessSaveRestore checkpoints mid-run and at the clamped final
// boundary; the restored driver must sample identically and finish on
// the same grid.
func TestHeadlessSaveRestore(t *testing.T) {
	cfg := HeadlessConfig{Seed: 7, Horizon: 220 * time.Millisecond, Slice: 50 * time.Millisecond, SLO: "latency:*<1µs"}
	straight, err := NewHeadless(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wants []flatSample
	for !straight.Step() {
		wants = append(wants, flatten(straight.Sample()))
	}
	wants = append(wants, flatten(straight.Sample()))

	for cut := 1; cut <= len(wants); cut++ {
		d, err := NewHeadless(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			d.Step()
		}
		var cp bytes.Buffer
		if err := d.Save(&cp); err != nil {
			t.Fatal(err)
		}
		r, err := RestoreHeadless(&cp, cfg)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := flatten(r.Sample()); !reflect.DeepEqual(got, wants[cut-1]) {
			t.Fatalf("cut %d: restored sample diverged:\ngot  %+v\nwant %+v", cut, got, wants[cut-1])
		}
		if r.Done() != (cut == len(wants)) {
			t.Fatalf("cut %d: restored done = %v", cut, r.Done())
		}
		for i := cut; i < len(wants); i++ {
			r.Step()
			if got := flatten(r.Sample()); !reflect.DeepEqual(got, wants[i]) {
				t.Fatalf("cut %d: post-restore sample %d diverged", cut, i+1)
			}
		}
	}
}

func TestRestoreHeadlessErrors(t *testing.T) {
	cfg := HeadlessConfig{Seed: 1, Horizon: 100 * time.Millisecond, Slice: 50 * time.Millisecond}
	if _, err := RestoreHeadless(strings.NewReader("junk"), cfg); err == nil {
		t.Error("restore from junk succeeded")
	}
	bad := cfg
	bad.Slice = time.Second
	if _, err := RestoreHeadless(strings.NewReader(""), bad); err == nil {
		t.Error("restore with a bad spec succeeded")
	}
	badSLO := cfg
	badSLO.SLO = "nope"
	if _, err := RestoreHeadless(strings.NewReader(""), badSLO); err == nil {
		t.Error("restore with a bad SLO plan succeeded")
	}
}

// A checkpoint resumes only under the spec it was saved from: any
// difference in the scenario the spec describes is refused before the
// replay, while what the harness does not record (the SLO plan, tracing)
// is the resuming spec's to choose.
func TestRestoreHeadlessRefusesAnotherSpec(t *testing.T) {
	cfg := HeadlessConfig{Seed: 1, Horizon: 400 * time.Millisecond, Slice: 100 * time.Millisecond}
	d, err := NewHeadless(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	var cp bytes.Buffer
	if err := d.Save(&cp); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*HeadlessConfig){
		"seed":     func(c *HeadlessConfig) { c.Seed = 2 },
		"horizon":  func(c *HeadlessConfig) { c.Horizon = 800 * time.Millisecond },
		"cycle":    func(c *HeadlessConfig) { c.Cycle = time.Millisecond },
		"fail_at":  func(c *HeadlessConfig) { c.FailAt = 120 * time.Millisecond },
		"faults":   func(c *HeadlessConfig) { c.Faults = "linkflap:v1-dp@150ms+50ms" },
		"baseline": func(c *HeadlessConfig) { c.Baseline = true },
	} {
		other := cfg
		mutate(&other)
		if r, err := RestoreHeadless(bytes.NewReader(cp.Bytes()), other); err == nil {
			t.Errorf("%s: a seed-1 / 400 ms run resumed under %+v", name, r.Config())
		}
	}
	same := cfg
	same.SLO, same.Trace = "latency:*<1µs", true
	if _, err := RestoreHeadless(bytes.NewReader(cp.Bytes()), same); err != nil {
		t.Errorf("same scenario, other observation: %v", err)
	}
}

func TestHeadlessFaultsAndFailAt(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{
		Seed:    1,
		Horizon: 400 * time.Millisecond,
		Slice:   100 * time.Millisecond,
		FailAt:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !d.Step() {
	}
	if d.Result().Switchovers == 0 {
		t.Error("explicit FailAt produced no failover")
	}

	// A declarative fault plan must parse and visibly perturb the run:
	// flapping the primary's data-plane link mid-run lowers its
	// delivered count versus the unfaulted twin.
	base, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 400 * time.Millisecond, Slice: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewHeadless(HeadlessConfig{
		Seed:    1,
		Horizon: 400 * time.Millisecond,
		Slice:   100 * time.Millisecond,
		Faults:  "linkflap:v1-dp@150ms+100ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	for !base.Step() {
	}
	for !df.Step() {
	}
	if reflect.DeepEqual(flatten(base.Sample()).Tags, flatten(df.Sample()).Tags) {
		t.Error("link-flap fault plan left the run untouched")
	}
}

func TestSinkLossFraction(t *testing.T) {
	if f := (SinkLoss{}).Fraction(); f != 0 {
		t.Errorf("empty aggregate fraction %g", f)
	}
	if f := (SinkLoss{Received: 75, Lost: 25}).Fraction(); f != 0.25 {
		t.Errorf("25/100 fraction %g", f)
	}
}

// TestHeadlessTraceResumeEqualsStraight pins the trace-stitching
// contract the gateway's /trace export depends on: a traced run resumed
// from a checkpoint re-records the replayed prefix, so its full event
// log equals a straight traced run's exactly.
func TestHeadlessTraceResumeEqualsStraight(t *testing.T) {
	cfg := HeadlessConfig{Seed: 7, Horizon: 220 * time.Millisecond, Slice: 50 * time.Millisecond, Trace: true}
	straight, err := NewHeadless(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !straight.Step() {
	}
	want := straight.TraceEvents()
	if len(want) == 0 {
		t.Fatal("traced run recorded no events")
	}

	d, err := NewHeadless(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	d.Step()
	var cp bytes.Buffer
	if err := d.Save(&cp); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreHeadless(&cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Step() {
	}
	got := r.TraceEvents()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed trace diverged: %d events vs %d", len(got), len(want))
	}
}

// TestHeadlessTraceOffByDefault pins that untraced runs carry no
// tracer: TraceEvents is nil and the run costs nothing extra.
func TestHeadlessTraceOffByDefault(t *testing.T) {
	d, err := NewHeadless(HeadlessConfig{Seed: 1, Horizon: 100 * time.Millisecond, Slice: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for !d.Step() {
	}
	if d.TraceEvents() != nil {
		t.Error("untraced run recorded events")
	}
}
