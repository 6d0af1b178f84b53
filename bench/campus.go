package main

import (
	"fmt"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/topo"
)

// campusSize sizes campus_10k: the BENCH_7 campus (32 cells of 313
// switches plus 4 spines, one host per switch) at a longer horizon.
type campusSize struct {
	topo    topo.CampusConfig
	horizon sim.Duration
	period  sim.Duration
	minReps int
	// setupSamples is the number of extra stand-alone builds: the build
	// takes a tenth of a second, so the reps alone sample it too thinly.
	setupSamples int
	pinned       bool
}

var campusFull = campusSize{
	topo:         topo.CampusConfig{Cells: 32, SwitchesPerCell: 313, HostsPerSwitch: 1, Spines: 4},
	horizon:      20 * sim.Millisecond,
	period:       250 * sim.Microsecond,
	minReps:      4,
	setupSamples: 6,
	pinned:       true,
}

func (z campusSize) config(p params) core.CampusConfig {
	return core.CampusConfig{
		Seed:    p.seed,
		Topo:    z.topo,
		Horizon: z.horizon,
		Period:  z.period,
		INT:     true,
		Workers: p.workers,
	}
}

// campusRep is one build + run of the campus.
type campusRep struct {
	build, run, result time.Duration
	buildAllocMB       float64
	allocMB            float64
	events             uint64
	digest             uint64
	res                core.CampusResult
	profile            sim.ShardProfile
}

// output is what the rep's checks compare: the state digest and the
// frame-conservation ledger.
func (r campusRep) output() string {
	return fmt.Sprintf("digest=%016x accounting=%+v", r.digest, r.res.Accounting)
}

// runCampusRep builds the campus and runs it to the horizon, timing
// the phases apart. rec may be nil.
func runCampusRep(cfg core.CampusConfig, rec *recorder) (campusRep, error) {
	var r campusRep
	var h *core.CampusHarness
	var err error
	settle()
	a0 := totalAllocMB()
	r.build = rec.do("core.NewCampusHarness", func() { h, err = core.NewCampusHarness(cfg) })
	if err != nil {
		return r, err
	}
	a1 := totalAllocMB()
	r.run = rec.do("core.CampusHarness.Run", func() { h.Run() })
	r.result = rec.do("core.CampusHarness.Result", func() {
		r.res = h.Result()
		r.digest = h.Digest()
	})
	r.buildAllocMB = a1 - a0
	r.allocMB = totalAllocMB() - a0
	g := h.Network().Group
	for i := 0; i < g.Shards(); i++ {
		r.events += g.Shard(i).EventsFired()
	}
	r.profile = h.ShardProfile()
	return r, nil
}

// checkCampus counts one operation per run: its outputs must equal the
// reference's (rep 0, or the W-worker run), conserve frames, and for
// seed 1 at full size match the pin.
func checkCampus(res *result, z campusSize, p params, what string, got campusRep, want string) {
	problem := ""
	if err := got.res.Accounting.Check(); err != nil {
		problem = fmt.Sprintf("campus_10k %s: frame conservation: %v", what, err)
	} else if got.res.Accounting.Delivered == 0 {
		problem = fmt.Sprintf("campus_10k %s: delivered nothing", what)
	} else if got.output() != want {
		problem = fmt.Sprintf("campus_10k %s: output %s differs from %s", what, got.output(), want)
	} else if pin := pins["campus_10k/output"]; z.pinned && p.seed == 1 && digest(want) != pin {
		problem = fmt.Sprintf("campus_10k %s: output %s (sha %s) differs from the pinned seed-1 digest %s", what, want, digest(want), pin)
	}
	res.op(problem)
}

func dropped(a simnet.Accounting) uint64 {
	return a.Destroyed + a.OverflowDrops + a.DownDrops + a.INTDrops
}

func runCampus(z campusSize, p params) (*result, error) {
	res := newResult("campus_10k", p.trace)
	// The bounded numbers are taken at one worker. At W workers every
	// disturbance on either core stalls both at the next barrier, and on
	// the reference box that run's spread (a quarter to a third of its
	// median) is wider than any bound the contract allows; the W-worker
	// run is measured by the traced pass (campus_run_s, sim.shard.*).
	cfg := z.config(p)
	cfg.Workers = 1

	var builds []float64
	for i := 0; i < z.setupSamples; i++ {
		settle()
		t := time.Now()
		if _, err := core.NewCampusHarness(cfg); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t).Seconds())
	}
	var reps []campusRep
	for rep := 0; p.more(rep, z.minReps); rep++ {
		r, err := runCampusRep(cfg, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		checkCampus(res, z, p, fmt.Sprintf("rep %d", rep), r, reps[0].output())
	}
	res.fastest("setup_s", append(builds, col(reps, func(r campusRep) float64 { return r.build.Seconds() })...))
	res.fastest("response_ms", col(reps, func(r campusRep) float64 { return r.run.Seconds() * 1e3 }))
	res.median("alloc_mb", col(reps, func(r campusRep) float64 { return r.allocMB }))

	if p.trace {
		if err := traceCampus(res, z, p, reps[len(reps)-1]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceCampus repeats the run three ways with spans around the harness
// calls: profiled at one worker (rep 0, the like-for-like repeat of the
// reference), profiled at W workers, and at one worker with INT off.
// Outputs must agree between W workers and one.
func traceCampus(res *result, z campusSize, p params, ref campusRep) error {
	rec := newRecorder(res.workload)
	cfg := z.config(p)
	cfg.Workers = 1
	cfg.Profile = true
	var one, many, noINT campusRep
	var err error
	rec.do("campus_10k.one_worker", func() { one, err = runCampusRep(cfg, rec) })
	if err != nil {
		return err
	}
	checkCampus(res, z, p, "profiled at 1 worker", one, ref.output())

	rec.rep = 1
	cfg.Workers = p.workers
	rec.do("campus_10k.w_workers", func() { many, err = runCampusRep(cfg, rec) })
	if err != nil {
		return err
	}
	checkCampus(res, z, p, fmt.Sprintf("at %d workers vs 1", p.workers), many, ref.output())

	rec.rep = 2
	cfg = z.config(p)
	cfg.Workers = 1
	cfg.INT = false
	rec.do("campus_10k.int_off", func() { noINT, err = runCampusRep(cfg, rec) })
	if err != nil {
		return err
	}

	var busy, wait float64
	for _, lane := range many.profile.PerShard {
		busy += float64(lane.BusyNS) / 1e9
		wait += float64(lane.BarrierWaitNS) / 1e9
	}
	a := one.res.Accounting
	res.set("campus_run_s", many.run.Seconds(), 1)
	res.set("core.campus_build_s", one.build.Seconds(), 1)
	res.set("core.campus_result_ms", one.result.Seconds()*1e3, 1)
	res.set("core.campus_build_alloc_mb", one.buildAllocMB, 1)
	res.set("sim.campus_events", float64(one.events), 1)
	res.set("sim.campus_ns_per_event", ref.run.Seconds()*1e9/float64(ref.events), 1)
	res.set("sim.shard.windows", float64(one.res.Group.Windows), 1)
	res.set("sim.shard.messages", float64(one.res.Group.Messages), 1)
	res.set("sim.shard.busy_s", busy, len(many.profile.PerShard))
	res.set("sim.shard.barrier_wait_s", wait, len(many.profile.PerShard))
	res.set("sim.shard.imbalance", one.profile.Imbalance, 1)
	res.set("sim.shard.speedup", ref.run.Seconds()/many.run.Seconds(), 1)
	res.set("simnet.delivered", float64(a.Delivered), 1)
	res.set("simnet.dropped", float64(dropped(a)), 1)
	res.set("int.observations", float64(one.res.INTObservations), 1)
	res.set("int.overhead_frac", ref.run.Seconds()/noINT.run.Seconds()-1, 1)
	res.spans = rec.spans
	res.untracedWall = (ref.build + ref.run + ref.result).Seconds()
	res.set("bench.trace_overhead_frac", tracedWall(res.spans).Seconds()/res.untracedWall-1, 1)
	return nil
}
