package checkpoint_test

// Differential-replay verification: for every experiment harness, run
// straight to 2N, stopping at N, then run a second time to 2N — from a
// checkpoint taken at N where the kind restores, from a fresh build
// advanced to N and then to 2N where it does not. The second run must be
// byte-identical — rendered figures, telemetry JSONL timelines,
// metrics snapshots, frame-conservation accounts, and (where the
// harness supports in-band telemetry) INT path digests, SLO breach logs
// and flight-recorder dumps. This is the strongest determinism test in
// the repo: any hidden state the checkpoint digest misses, any RNG
// stream the rebuild wires differently, any iteration-order dependence
// shows up as a diff here.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/core"
	"steelnet/internal/instaplc"
	intnet "steelnet/internal/int"
	"steelnet/internal/mltopo"
	"steelnet/internal/mlwork"
	"steelnet/internal/mrp"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
)

// stepper is what every experiment harness offers the verifier.
type stepper interface {
	AdvanceTo(t sim.Time)
	Horizon() sim.Time
	Digest() uint64
}

// resumable is a harness whose kind a command restores.
type resumable interface {
	stepper
	Save(w io.Writer) error
}

// resumeCase builds one harness kind into the given telemetry sinks and
// knows how to render its observable output and, for a kind a command
// restores, how to restore it. Harnesses with in-band telemetry set int
// and are handed a collector in the sinks (a restore feeds it — and the
// watchdog chained on it — the replayed window from t=0).
type resumeCase struct {
	name    string
	int     bool
	build   func(s sweep.Sinks) stepper
	restore restoreFunc // nil: the second run is a fresh build
	render  func(h stepper) string
}

func smallInstaplcConfig() instaplc.ExperimentConfig {
	cfg := instaplc.DefaultExperimentConfig()
	cfg.SecondaryJoinAt = 100 * time.Millisecond
	cfg.FailAt = 300 * time.Millisecond
	cfg.Horizon = 800 * time.Millisecond
	return cfg
}

func resumeCases() []resumeCase {
	reflCfg := reflection.DefaultConfig()
	reflCfg.Cycles = 120

	mrpCfg := mrp.DefaultRingExperimentConfig()
	mrpCfg.Horizon = 1200 * time.Millisecond

	mlSc := mltopo.DefaultScenario(mltopo.Ring, mlwork.ObjectIdentification, 8)
	mlSc.Horizon = 400 * time.Millisecond

	chaosCfg := core.DefaultChaosConfig()
	chaosCfg.Base = smallInstaplcConfig()

	instaplcRender := func(h stepper) string {
		res := h.(*instaplc.Harness).Result()
		return instaplc.RenderFigure5(res) +
			fmt.Sprintf("%+v\n", res.Accounting) +
			fmt.Sprintf("int=%d changes=%+v\n", res.INTObservations, res.PathChanges) +
			res.FaultTrace
	}
	return []resumeCase{
		{
			name: "instaplc",
			int:  true,
			build: func(s sweep.Sinks) stepper {
				cfg := smallInstaplcConfig()
				cfg.Sinks, cfg.INT = s, s.Collector != nil
				return instaplc.NewHarness(cfg)
			},
			restore: restoreAs(instaplc.RestoreWith),
			render:  instaplcRender,
		},
		{
			name: "reflection",
			int:  true,
			build: func(s sweep.Sinks) stepper {
				cfg := reflCfg
				cfg.Sinks, cfg.INT = s, s.Collector != nil
				return reflection.NewHarness(cfg, reflection.NewBase())
			},
			render: func(h stepper) string {
				res := h.(*reflection.Harness).Result()
				return reflection.DelayTable([]reflection.Result{res}) +
					reflection.JitterTable([]reflection.Result{res})
			},
		},
		{
			name: "mrp",
			build: func(s sweep.Sinks) stepper {
				cfg := mrpCfg
				cfg.Sinks = s
				h, err := mrp.NewHarness(cfg)
				if err != nil {
					panic(err)
				}
				return h
			},
			render: func(h stepper) string {
				return fmt.Sprintf("%+v", h.(*mrp.Harness).Result())
			},
		},
		{
			name: "mltopo",
			int:  true,
			build: func(s sweep.Sinks) stepper {
				sc := mlSc
				sc.Sinks, sc.INT = s, s.Collector != nil
				return mltopo.NewHarness(sc)
			},
			render: func(h stepper) string {
				return fmt.Sprintf("%+v", h.(*mltopo.Harness).Result())
			},
		},
		{
			// A chaos cell is the instaplc harness under a generated fault
			// plan; its checkpoint carries the whole plan, so it restores
			// through the instaplc codec.
			name: "chaos",
			int:  true,
			build: func(s sweep.Sinks) stepper {
				cfg := core.ChaosCellConfig(chaosCfg, 7) // intensity 4, trial 1
				cfg.Sinks, cfg.INT = s, s.Collector != nil
				return instaplc.NewHarness(cfg)
			},
			restore: restoreAs(instaplc.RestoreWith),
			render:  instaplcRender,
		},
	}
}

// intAttachments is the full observability stack one run carries: the
// collector, an SLO watchdog chained on its observation stream, and a
// flight recorder riding the tracer. The 1µs bound is deliberately
// unattainable so every INT-capable case records real breaches.
type intAttachments struct {
	coll *intnet.Collector
	wd   *intnet.Watchdog
	rec  *intnet.Recorder
}

func attachObservability(t *testing.T, c resumeCase, tr *telemetry.Tracer) intAttachments {
	t.Helper()
	var a intAttachments
	a.rec = intnet.NewRecorder()
	a.rec.Attach(tr)
	if !c.int {
		return a
	}
	a.coll = intnet.NewCollector()
	plan, err := intnet.ParseSLOPlan("latency:*<1µs")
	if err != nil {
		t.Fatalf("ParseSLOPlan: %v", err)
	}
	a.wd = intnet.NewWatchdog(plan, tr)
	a.wd.Attach(a.coll)
	return a
}

// renderINT serializes every in-band artifact for byte comparison.
func renderINT(t *testing.T, a intAttachments) (digests, breaches, flightrec string) {
	t.Helper()
	var d, b, f bytes.Buffer
	if a.coll != nil {
		if err := a.coll.WriteJSONL(&d); err != nil {
			t.Fatalf("collector WriteJSONL: %v", err)
		}
	}
	if a.wd != nil {
		if err := a.wd.WriteBreachLog(&b); err != nil {
			t.Fatalf("WriteBreachLog: %v", err)
		}
	}
	if err := a.rec.WriteJSONL(&f); err != nil {
		t.Fatalf("recorder WriteJSONL: %v", err)
	}
	return d.String(), b.String(), f.String()
}

// observe renders everything the run can show a user: the figure, the
// telemetry JSONL timeline, and the metrics snapshot.
func observe(t *testing.T, c resumeCase, h stepper, tr *telemetry.Tracer, reg *telemetry.Registry) (figure, jsonl, snapshot string) {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return c.render(h), buf.String(), reg.Snapshot()
}

func TestResumeEquivalence(t *testing.T) {
	for _, c := range resumeCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()

			// Straight run: advance to N, checkpoint where the kind
			// restores, keep going to 2N.
			trA := telemetry.NewTracer(nil)
			regA := telemetry.NewRegistry()
			attA := attachObservability(t, c, trA)
			a := c.build(sweep.Sinks{Trace: trA, Metrics: regA, Collector: attA.coll})
			n := a.Horizon() / 2
			a.AdvanceTo(n)
			var ckpt bytes.Buffer
			if c.restore != nil {
				if err := a.(resumable).Save(&ckpt); err != nil {
					t.Fatalf("Save at N: %v", err)
				}
			}
			a.AdvanceTo(a.Horizon())
			digestA := a.Digest()
			figA, jsonlA, snapA := observe(t, c, a, trA, regA)
			intA, breachA, recA := renderINT(t, attA)

			// Second run: rebuild from the checkpoint (which replays 0..N
			// and verifies the digest), or build afresh and stop at N,
			// then run N..2N. The fresh collector/watchdog/recorder see
			// the replayed window too, so every artifact must come out
			// byte-identical.
			trB := telemetry.NewTracer(nil)
			regB := telemetry.NewRegistry()
			attB := attachObservability(t, c, trB)
			sinksB := sweep.Sinks{Trace: trB, Metrics: regB, Collector: attB.coll}
			var b stepper
			if c.restore != nil {
				var err error
				if b, err = c.restore(bytes.NewReader(ckpt.Bytes()), sinksB); err != nil {
					t.Fatalf("Restore: %v", err)
				}
			} else {
				b = c.build(sinksB)
				b.AdvanceTo(n)
			}
			b.AdvanceTo(b.Horizon())
			if got := b.Digest(); got != digestA {
				t.Fatalf("state digest diverged after resume: straight %#x, resumed %#x", digestA, got)
			}
			figB, jsonlB, snapB := observe(t, c, b, trB, regB)
			intB, breachB, recB := renderINT(t, attB)

			if figA != figB {
				t.Errorf("rendered figure diverged after resume:\nstraight:\n%s\nresumed:\n%s", figA, figB)
			}
			if jsonlA != jsonlB {
				t.Errorf("telemetry JSONL diverged after resume (straight %d bytes, resumed %d bytes)",
					len(jsonlA), len(jsonlB))
			}
			if snapA != snapB {
				t.Errorf("metrics snapshot diverged after resume:\nstraight:\n%s\nresumed:\n%s", snapA, snapB)
			}
			if intA != intB {
				t.Errorf("INT digest JSONL diverged after resume (straight %d bytes, resumed %d bytes)",
					len(intA), len(intB))
			}
			if breachA != breachB {
				t.Errorf("SLO breach log diverged after resume:\nstraight:\n%s\nresumed:\n%s", breachA, breachB)
			}
			if recA != recB {
				t.Errorf("flight-recorder dump diverged after resume (straight %d bytes, resumed %d bytes)",
					len(recA), len(recB))
			}
			if c.int {
				// The comparisons must compare something real: traffic was
				// collected and the unattainable objective breached.
				if attA.coll.Observations == 0 {
					t.Error("INT-capable case collected no observations")
				}
				if len(attA.wd.Breaches()) == 0 {
					t.Error("1µs objective never breached; breach-log equality is vacuous")
				}
				if attA.rec.Empty() {
					t.Error("flight recorder stayed empty")
				}
			}
		})
	}
}

// TestRestoreDetectsDivergence rewrites a checkpoint with a wrong
// recorded digest and asserts the restore fails loudly with a
// DivergenceError rather than silently resuming a different run. An
// instant outside the run is refused as corrupt before any replay, so
// a forged one cannot replay the cycle for ever.
func TestRestoreDetectsDivergence(t *testing.T) {
	cfg := smallInstaplcConfig()
	h := instaplc.NewHarness(cfg)
	h.AdvanceTo(h.Horizon() / 2)
	var orig bytes.Buffer
	if err := h.Save(&orig); err != nil {
		t.Fatalf("Save: %v", err)
	}
	spec, at, _, err := checkpoint.Read(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var forged bytes.Buffer
	if err := checkpoint.Write(&forged, spec, at, h.Digest()^1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	_, err = instaplc.RestoreWith(&forged, sweep.Sinks{})
	var div *checkpoint.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("Restore with wrong digest: got %v, want DivergenceError", err)
	}
	for _, bad := range []int64{-1, int64(cfg.Horizon) + 1, 1 << 62} {
		forged.Reset()
		if err := checkpoint.Write(&forged, spec, bad, h.Digest()); err != nil {
			t.Fatal(err)
		}
		if _, err := instaplc.RestoreWith(&forged, sweep.Sinks{}); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("checkpoint taken at %dns: err = %v, want ErrCorrupt", bad, err)
		}
	}
}
