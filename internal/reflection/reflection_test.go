package reflection

import (
	"bytes"
	"strings"
	"testing"

	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/telemetry"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cycles = 300
	return cfg
}

func TestAllVariantsVerify(t *testing.T) {
	for _, v := range AllVariants() {
		if !v.Program.Verified() {
			t.Fatalf("variant %s not verified", v.Name)
		}
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	if _, err := NewVariant("TS-XXL"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestVariantProgramsSwapMACs(t *testing.T) {
	v := NewBase()
	// Craft an untagged probe frame manually.
	pkt := make([]byte, 14+32)
	copy(pkt[0:6], []byte{1, 1, 1, 1, 1, 1})
	copy(pkt[6:12], []byte{2, 2, 2, 2, 2, 2})
	pkt[12], pkt[13] = 0x88, 0xb6
	costs := ebpf.DefaultCosts
	res, err := v.Program.Run(pkt, 0, &costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != ebpf.XDPTx {
		t.Fatalf("verdict = %d", res.Verdict)
	}
	if pkt[0] != 2 || pkt[6] != 1 {
		t.Fatalf("MACs not swapped: % x", pkt[:12])
	}
}

func TestVariantsPassNonProbeFrames(t *testing.T) {
	for _, v := range AllVariants() {
		pkt := make([]byte, 60)
		pkt[12], pkt[13] = 0x08, 0x00 // IPv4
		costs := ebpf.DefaultCosts
		res, err := v.Program.Run(pkt, 0, &costs, nil)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Verdict != ebpf.XDPPass {
			t.Fatalf("%s: verdict = %d", v.Name, res.Verdict)
		}
	}
}

func TestTSOWWritesTimestampIntoPayload(t *testing.T) {
	v := NewTSOW()
	pkt := make([]byte, 14+32)
	pkt[12], pkt[13] = 0x88, 0xb6
	costs := ebpf.DefaultCosts
	if _, err := v.Program.Run(pkt, sim.Time(123456), &costs, nil); err != nil {
		t.Fatal(err)
	}
	// TS1 slot at payload offset 8 -> frame offset 22.
	var ts uint64
	for _, b := range pkt[22:30] {
		ts = ts<<8 | uint64(b)
	}
	if ts < 123456 {
		t.Fatalf("payload timestamp = %d", ts)
	}
}

func TestRingVariantsProduceRecords(t *testing.T) {
	for _, name := range []string{VariantTSRB, VariantTSDRB} {
		v, _ := NewVariant(name)
		pkt := make([]byte, 14+32)
		pkt[12], pkt[13] = 0x88, 0xb6
		costs := ebpf.DefaultCosts
		if _, err := v.Program.Run(pkt, 0, &costs, nil); err != nil {
			t.Fatal(err)
		}
		if v.Ring.Produced != 1 {
			t.Fatalf("%s: produced = %d", name, v.Ring.Produced)
		}
	}
}

func TestRunCollectsAllCycles(t *testing.T) {
	cfg := smallConfig()
	res := Run(cfg, NewBase())
	if res.Delays.Len() < cfg.Cycles {
		t.Fatalf("delays = %d, want >= %d", res.Delays.Len(), cfg.Cycles)
	}
}

func TestDelaysInFigure4Band(t *testing.T) {
	// Fig. 4 (left): delays land in roughly the 10-20 µs band.
	res := Run(smallConfig(), NewBase())
	if med := res.Delays.Median(); med < 8 || med > 22 {
		t.Fatalf("median delay = %.1fµs, want ≈10-20µs", med)
	}
	if res.Delays.Min() <= 0 {
		t.Fatal("non-positive delay measured")
	}
}

func TestRingBufferVariantsSlower(t *testing.T) {
	cfg := smallConfig()
	results := RunAllVariants(cfg)
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Variant] = r
	}
	// Fig. 4 (left): ring-buffer variants are right-shifted vs. all
	// non-ring variants.
	for _, rb := range []string{VariantTSRB, VariantTSDRB} {
		for _, plain := range []string{VariantBase, VariantTS, VariantTSTS, VariantTSOW} {
			if byName[rb].Delays.Median() <= byName[plain].Delays.Median() {
				t.Fatalf("%s median %.2f <= %s median %.2f",
					rb, byName[rb].Delays.Median(), plain, byName[plain].Delays.Median())
			}
		}
	}
	// Small code deltas give small but nonzero shifts: TS > Base.
	if byName[VariantTS].Delays.Median() <= byName[VariantBase].Delays.Median() {
		t.Fatal("TS not slower than Base")
	}
	if byName[VariantTSTS].Delays.Median() <= byName[VariantTS].Delays.Median() {
		t.Fatal("TS-TS not slower than TS")
	}
}

func TestMoreFlowsMoreJitter(t *testing.T) {
	cfg := smallConfig()
	results := RunFlowSweep(cfg, []int{1, 25})
	j1 := results[0].Jitter
	j25 := results[1].Jitter
	if j25.P99() <= j1.P99() {
		t.Fatalf("25-flow p99 jitter %.0fns <= 1-flow %.0fns", j25.P99(), j1.P99())
	}
	// Fig. 4 (right) band: jitter within ~0-1000 ns for 1 flow at p99.
	if j1.P99() >= 1000 {
		t.Fatalf("1-flow p99 jitter = %.0fns, want sub-µs", j1.P99())
	}
}

func TestRingRecordsCounted(t *testing.T) {
	cfg := smallConfig()
	res := Run(cfg, NewTSRB())
	if res.RingRecords == 0 {
		t.Fatal("no ring records counted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Cycles = 100
	a := Run(cfg, NewBase())
	b := Run(cfg, NewBase())
	if a.Delays.Len() != b.Delays.Len() || a.Delays.Mean() != b.Delays.Mean() {
		t.Fatal("same seed diverged")
	}
}

func TestSeedChangesDistributionNotShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Cycles = 200
	a := Run(cfg, NewBase())
	cfg.Seed = 2
	b := Run(cfg, NewBase())
	if a.Delays.Mean() == b.Delays.Mean() {
		t.Fatal("different seeds identical (suspicious)")
	}
	// But medians stay within 1 µs of each other: the model, not the
	// noise, dominates.
	if d := a.Delays.Median() - b.Delays.Median(); d > 1 || d < -1 {
		t.Fatalf("medians differ by %.2fµs across seeds", d)
	}
}

func TestReflectorCountsVerdicts(t *testing.T) {
	cfg := smallConfig()
	cfg.Cycles = 50
	e := sim.NewEngine(cfg.Seed)
	_ = e
	res := Run(cfg, NewBase())
	if res.Delays.Len() == 0 {
		t.Fatal("nothing reflected")
	}
}

func TestTablesRender(t *testing.T) {
	cfg := smallConfig()
	cfg.Cycles = 50
	results := RunAllVariants(cfg)
	dt := DelayTable(results)
	if !strings.Contains(dt, "TS-D-RB") || !strings.Contains(dt, "Figure 4") {
		t.Fatalf("delay table = %q", dt)
	}
	sweep := RunFlowSweep(cfg, []int{1, 25})
	jt := JitterTable(sweep)
	if !strings.Contains(jt, "25 flow(s)") {
		t.Fatalf("jitter table = %q", jt)
	}
}

func TestSenderStopHaltsFlows(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSender(e, "s", [6]byte{2, 0x5e, 0, 0, 0, 1}, [6]byte{2, 0x5e, 0, 0, 0, 2}, 32)
	s.StartFlow(1, 0, sim.Millisecond)
	e.RunUntil(sim.Time(5 * sim.Millisecond))
	s.Stop()
	sent := s.Host().Port().TxFrames + s.Host().Port().Drops
	e.RunUntil(sim.Time(20 * sim.Millisecond))
	after := s.Host().Port().TxFrames + s.Host().Port().Drops
	if after != sent {
		t.Fatalf("sender kept sending after Stop: %d -> %d", sent, after)
	}
}

func TestConsecutiveJitterEventsReported(t *testing.T) {
	// §2.1: consecutive jitter events must be reportable, not just the
	// distribution. On a PREEMPT_RT single-flow run, µs-scale runs long
	// enough to trip a 3-cycle watchdog must not exist.
	cfg := smallConfig()
	res := Run(cfg, NewBase())
	if res.WouldTripWatchdog(2000, 3) {
		events := res.ConsecutiveJitterEvents(2000, 3)
		t.Fatalf("PREEMPT_RT run would trip a 3-cycle watchdog: %+v", events)
	}
	// But sub-100ns deviations occur in runs — the analysis must see
	// them (the series is not degenerate).
	if len(res.ConsecutiveJitterEvents(10, 1)) == 0 {
		t.Fatal("no jitter events at a 10ns threshold — series degenerate")
	}
}

func TestStandardKernelProducesLongerBursts(t *testing.T) {
	cfg := smallConfig()
	rt := Run(cfg, NewBase())
	cfgStd := cfg
	cfgStd.Profile = host.Standard
	std := Run(cfgStd, NewBase())
	worstRT := metrics.WorstBurst(rt.Jitter, 500)
	worstStd := metrics.WorstBurst(std.Jitter, 500)
	if worstStd.Length < worstRT.Length {
		t.Fatalf("standard kernel bursts (%d) shorter than RT (%d)", worstStd.Length, worstRT.Length)
	}
}

func TestTSOWTimestampVisibleAtSenderEndToEnd(t *testing.T) {
	// The TS-OW variant's whole point: the reflected probe carries the
	// eBPF-written timestamp back to the sender, readable without any
	// ring buffer. Run the harness and check the tap saw reflected
	// probes whose TS1 slot is nonzero.
	cfg := smallConfig()
	cfg.Cycles = 50
	e := sim.NewEngine(cfg.Seed)
	stk := host.NewStack(cfg.Profile, e.RNG("stack"))
	sender := NewSender(e, "sender", frame.NewMAC(1), frame.NewMAC(2), cfg.ProbeSize)
	costs := cfg.Costs
	refl := NewReflector(e, "reflector", frame.NewMAC(2), stk, NewTSOW(), &costs)
	var stamped, unstamped int
	sender.Host().OnReceive(func(f *frame.Frame) {
		if f.Type != frame.TypeBenchEcho {
			return
		}
		p, err := frame.UnmarshalProbe(f.Payload)
		if err != nil {
			return
		}
		if p.TS1 != 0 {
			stamped++
		} else {
			unstamped++
		}
	})
	simnet.Connect(e, "l", sender.Host().Port(), refl.Host().Port(), cfg.LinkBps, 500*sim.Nanosecond)
	sender.StartFlow(1, 0, cfg.Cycle)
	e.RunUntil(sim.Time(cfg.Cycle) * sim.Time(cfg.Cycles))
	sender.Stop()
	e.Run()
	if stamped < 40 || unstamped > 0 {
		t.Fatalf("stamped=%d unstamped=%d", stamped, unstamped)
	}
}

// TestSweepINTExportHasNoCellBoundaries: the entry the CLIs call
// (RunXResumable with no path) exports the same INT digests, trace and
// decomposition table as RunX, at any worker count. Every cell restarts
// its probe sequence numbers at 1, so a collector shared across cells
// would report reordering that never happened.
func TestSweepINTExportHasNoCellBoundaries(t *testing.T) {
	export := func(workers int, run func(Config)) []byte {
		cfg := smallConfig()
		cfg.Cycles = 50
		cfg.Workers = workers
		cfg.INT, cfg.Collector, cfg.Trace = true, intnet.NewCollector(), telemetry.NewTracer(nil)
		run(cfg)
		var b bytes.Buffer
		if err := cfg.Collector.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&b, cfg.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		b.WriteString(DecompositionTable(cfg.Collector.Digests()))
		return b.Bytes()
	}
	lib := export(4, func(cfg Config) {
		RunAllVariants(cfg)
		RunFlowSweep(cfg, []int{1, 3})
	})
	cli := export(1, func(cfg Config) {
		if _, err := RunAllVariantsResumable(cfg, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := RunFlowSweepResumable(cfg, []int{1, 3}, ""); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(cli, lib) {
		t.Error("RunXResumable(cfg, \"\") and RunX(cfg) export different INT digests or traces")
	}
	if bytes.Contains(cli, []byte(`"reordered"`)) {
		t.Error("sweep INT export reports reordering across cell boundaries")
	}
}
