package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
)

// figsSize sizes paper_figs. The full size is what a reader of the
// paper runs; tests shrink it.
type figsSize struct {
	cycles       int           // Fig. 4 probes per flow
	fig5Horizon  time.Duration // Fig. 5 simulated length
	clients      []int         // Fig. 6 client counts
	fig6Horizon  time.Duration // Fig. 6 simulated length per cell
	ebpfCalls    int           // direct Program.Run calls (traced)
	minReps      int
	setupSamples int
	pinned       bool // outputs are pinned for seed 1 at this size
}

var figsFull = figsSize{
	cycles:       20000,
	fig5Horizon:  600 * time.Second,
	clients:      []int{32, 64, 128, 256},
	fig6Horizon:  time.Second,
	ebpfCalls:    1_000_000,
	minReps:      3,
	setupSamples: 9,
	pinned:       true,
}

func (z figsSize) reflection(p params) reflection.Config {
	cfg := reflection.DefaultConfig()
	cfg.Seed = p.seed
	cfg.Cycles = z.cycles
	cfg.Workers = p.workers
	return cfg
}

func (z figsSize) fig5(p params) instaplc.ExperimentConfig {
	cfg := instaplc.DefaultExperimentConfig()
	cfg.Seed = p.seed
	cfg.Horizon = z.fig5Horizon
	return cfg
}

func (z figsSize) fig6(p params) mltopo.Figure6Config {
	return mltopo.Figure6Config{Seed: p.seed, ClientCounts: z.clients, Horizon: z.fig6Horizon, Workers: p.workers}
}

// fig6Scenarios lists the Fig. 6 grid in the sweep's own order
// (app-major, kind-minor), as mltopo.RunFigure6 builds it.
func (z figsSize) fig6Scenarios(p params) []mltopo.Scenario {
	var scs []mltopo.Scenario
	for _, app := range mltopo.Apps {
		for _, clients := range z.clients {
			for _, kind := range mltopo.Kinds {
				sc := mltopo.DefaultScenario(kind, app, clients)
				sc.Seed = p.seed
				sc.Horizon = z.fig6Horizon
				scs = append(scs, sc)
			}
		}
	}
	return scs
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// figNames names the three figures in the order figTables holds them.
var figNames = [3]string{"fig4", "fig5", "fig6"}

// figTables is one rep's rendered output, hashed per figure.
type figTables [3]string

// figsRep is one untraced regeneration of the three figures through
// the same entry points the CLIs and bench_test.go use.
type figsRep struct {
	fig4, fig5, fig6 time.Duration
	allocMB          float64
	tables           figTables
}

func runFigsRep(z figsSize, p params) figsRep {
	var r figsRep
	settle()
	a0 := totalAllocMB()
	t0 := time.Now()
	delay, _ := core.Figure4Delay(z.reflection(p))
	jitter, _ := core.Figure4Jitter(z.reflection(p))
	t1 := time.Now()
	fig5, _ := core.Figure5(z.fig5(p))
	t2 := time.Now()
	fig6, _ := core.Figure6(z.fig6(p))
	t3 := time.Now()
	r.allocMB = totalAllocMB() - a0
	r.fig4, r.fig5, r.fig6 = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	r.tables = figTables{digest(delay + jitter), digest(fig5), digest(fig6)}
	return r
}

// figsSetup builds, and discards, everything the figures construct
// before their first event: the Fig. 6 cell harnesses, the Fig. 5
// harness and the six verified and compiled reflection variants.
func figsSetup(z figsSize, p params) time.Duration {
	t := time.Now()
	for _, sc := range z.fig6Scenarios(p) {
		mltopo.NewHarness(sc)
	}
	instaplc.NewHarness(z.fig5(p))
	reflection.AllVariants()
	return time.Since(t)
}

// checkFigs counts one operation per figure: its table must equal the
// reference's (rep 0, or the W-worker tables for the serial traced
// repeat), and for seed 1 at full size the pinned digest.
func checkFigs(res *result, z figsSize, p params, what string, got, want figTables) {
	for i, name := range figNames {
		problem := ""
		if got[i] != want[i] {
			problem = fmt.Sprintf("paper_figs %s: %s table %s differs from the reference %s", what, name, got[i][:12], want[i][:12])
		} else if pin := pins["paper_figs/"+name]; z.pinned && p.seed == 1 && got[i] != pin {
			problem = fmt.Sprintf("paper_figs %s: %s table %s differs from the pinned seed-1 digest %s", what, name, got[i], pin)
		}
		res.op(problem)
	}
}

func runFigs(z figsSize, p params) (*result, error) {
	res := newResult("paper_figs", p.trace)
	var setups []float64
	for i := 0; i < z.setupSamples; i++ {
		setups = append(setups, figsSetup(z, p).Seconds())
	}
	res.fastest("setup_s", setups)

	var reps []figsRep
	for rep := 0; p.more(rep, z.minReps); rep++ {
		r := runFigsRep(z, p)
		reps = append(reps, r)
		checkFigs(res, z, p, fmt.Sprintf("rep %d", rep), r.tables, reps[0].tables)
	}
	res.median("alloc_mb", col(reps, func(r figsRep) float64 { return r.allocMB }))
	res.fastest("fig4_wall_s", col(reps, func(r figsRep) float64 { return r.fig4.Seconds() }))
	res.fastest("fig5_wall_s", col(reps, func(r figsRep) float64 { return r.fig5.Seconds() }))
	fig6Wall := res.fastest("fig6_wall_s", col(reps, func(r figsRep) float64 { return r.fig6.Seconds() }))
	// Each figure's fastest rep, summed: a figure disturbed in one rep
	// spoils nothing.
	wall := res.values["fig4_wall_s"].V + res.values["fig5_wall_s"].V + fig6Wall
	res.set("response_ms", wall*1e3, len(reps))

	if p.trace {
		traceFigs(res, z, p, reps[0].tables, fig6Wall)
		res.untracedWall = wall
		res.set("bench.trace_overhead_frac", tracedWall(res.spans).Seconds()/wall-1, 1)
	}
	return res, nil
}

// traceFigs regenerates the figures once more through the per-figure
// harness APIs, serially, with a span around every call, and derives
// the per-layer metrics. The serial tables must equal the W-worker
// ones. The eBPF micro-loop and the checkpoint restore are work the
// untraced rep does not do; they are recorded as rep 1 so the budget
// of rep 0 compares like with like.
func traceFigs(res *result, z figsSize, p params, want figTables, fig6Wall float64) {
	rec := newRecorder(res.workload)
	serial := p
	serial.workers = 1
	var got figTables
	extra := func(name string, fn func()) time.Duration {
		rec.rep = 1
		defer func() { rec.rep = 0 }()
		return rec.do(name, fn)
	}

	rec.do("paper_figs.rep", func() {
		// Fig. 4.
		var delayTab, jitterTab string
		d := rec.do("reflection.RunAllVariants", func() {
			delayTab = reflection.DelayTable(reflection.RunAllVariants(z.reflection(serial)))
		})
		j := rec.do("reflection.RunFlowSweep", func() {
			jitterTab = reflection.JitterTable(reflection.RunFlowSweep(z.reflection(serial), []int{1, 25}))
		})
		got[0] = digest(delayTab + jitterTab)
		res.set("reflection.delay_s", d.Seconds(), 1)
		res.set("reflection.jitter_s", j.Seconds(), 1)
		e := extra("ebpf.Program.Run", func() {
			if err := ebpfLoop(z, p); err != nil {
				res.op("paper_figs: " + err.Error())
			}
		})
		res.set("ebpf.run_ns", float64(e.Nanoseconds())/float64(z.ebpfCalls), z.ebpfCalls)

		// Fig. 5, with a checkpoint taken half way.
		var h *instaplc.Harness
		rec.do("instaplc.NewHarness", func() { h = instaplc.NewHarness(z.fig5(p)) })
		half := sim.Time(z.fig5Horizon / 2)
		var ckpt bytes.Buffer
		adv := rec.do("instaplc.AdvanceTo", func() { h.AdvanceTo(half) })
		save := rec.do("instaplc.Save", func() {
			if err := h.Save(&ckpt); err != nil {
				res.op("paper_figs: checkpoint save: " + err.Error())
			}
		})
		size := ckpt.Len()
		adv += rec.do("instaplc.AdvanceTo", func() { h.AdvanceTo(h.Horizon()) })
		rec.do("instaplc.Result", func() { got[1] = digest(instaplc.RenderFigure5(h.Result())) })
		res.set("instaplc.advance_s", adv.Seconds(), 1)
		res.set("sim.fig5_events", float64(h.Engine().EventsFired()), 1)
		res.set("checkpoint.save_us", float64(save.Nanoseconds())/1e3, 1)
		res.set("checkpoint.bytes", float64(size), 1)
		restore := extra("instaplc.Restore", func() {
			if _, err := instaplc.Restore(&ckpt, nil, nil); err != nil {
				res.op("paper_figs: replay-anchored restore: " + err.Error())
			}
		})
		res.set("checkpoint.restore_s", restore.Seconds(), 1)

		// Fig. 6, one cell at a time.
		var results []mltopo.Result
		var cellS, buildS []float64
		var events uint64
		for _, sc := range z.fig6Scenarios(p) {
			var cell *mltopo.Harness
			b := rec.do("mltopo.NewHarness", func() { cell = mltopo.NewHarness(sc) })
			c := rec.do("mltopo.AdvanceTo", func() { cell.AdvanceTo(cell.Horizon()) })
			rec.do("mltopo.Result", func() { results = append(results, cell.Result()) })
			buildS = append(buildS, b.Seconds())
			cellS = append(cellS, c.Seconds())
			events += cell.Engine().EventsFired()
		}
		got[2] = digest(mltopo.RenderFigure6(results))
		res.set("mltopo.cells", float64(len(cellS)), 1)
		res.set("mltopo.cell_s_max", maxOf(cellS), len(cellS))
		res.set("mltopo.cell_s_sum", sum(cellS), len(cellS))
		res.set("mltopo.build_s_sum", sum(buildS), len(buildS))
		res.set("sim.fig6_events", float64(events), 1)
		res.set("sim.fig6_ns_per_event", sum(cellS)*1e9/float64(events), len(cellS))
		res.set("sweep.efficiency", sum(cellS)/(float64(p.workers)*fig6Wall), 1)
	})

	checkFigs(res, z, p, "traced at 1 worker", got, want)
	res.spans = rec.spans
}

// ebpfLoop runs the TS-RB reflection program directly on a marshaled
// probe, the way the reflector's XDP hook does, z.ebpfCalls times.
func ebpfLoop(z figsSize, p params) error {
	cfg := z.reflection(p)
	v := reflection.NewTSRB()
	f := &frame.Frame{Dst: frame.NewMAC(2), Src: frame.NewMAC(1), Type: frame.TypeBenchEcho, Payload: make([]byte, cfg.ProbeSize)}
	if err := frame.MarshalProbeInto(frame.Probe{Seq: 1, FlowID: 1}, f.Payload); err != nil {
		return fmt.Errorf("ebpf probe: %w", err)
	}
	tmpl := f.Marshal()
	pkt := make([]byte, len(tmpl))
	rng := sim.NewRNG(p.seed)
	costs := cfg.Costs
	reflected := 0
	for i := 0; i < z.ebpfCalls; i++ {
		copy(pkt, tmpl)
		out, err := v.Program.Run(pkt, sim.Time(i), &costs, rng)
		if err != nil {
			return fmt.Errorf("ebpf run %d: %w", i, err)
		}
		if out.Verdict == ebpf.XDPTx {
			reflected++
		}
		v.Ring.Read()
	}
	if reflected != z.ebpfCalls {
		return fmt.Errorf("ebpf: %d of %d probes reflected", reflected, z.ebpfCalls)
	}
	return nil
}
