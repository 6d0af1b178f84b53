package core

import (
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
	Loss     []intnet.SinkLoss
}

func flatten(s Sample) flatSample {
	return flatSample{
		Seq:      s.Seq,
		SimNS:    s.SimNS,
		Tags:     append([]Tag(nil), s.Tags...),
		Breaches: append([]intnet.Breach(nil), s.Breaches...),
		Loss:     append([]intnet.SinkLoss(nil), s.Loss...),
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
	if f := (intnet.SinkLoss{}).Fraction(); f != 0 {
		t.Errorf("empty aggregate fraction %g", f)
	}
	if f := (intnet.SinkLoss{Received: 75, Lost: 25}).Fraction(); f != 0.25 {
		t.Errorf("25/100 fraction %g", f)
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
