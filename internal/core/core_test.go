package core

import (
	"strings"
	"testing"
	"time"

	"steelnet/internal/host"
	"steelnet/internal/instaplc"
	"steelnet/internal/iodevice"
	"steelnet/internal/mltopo"
	"steelnet/internal/plc"
	"steelnet/internal/reflection"
	"steelnet/internal/trafficgen"
)

func TestFactoryBasicCellOperates(t *testing.T) {
	f := NewFactory(FactoryConfig{
		Seed:  1,
		Cells: []CellConfig{DefaultCell("cell1")},
	})
	f.Start(0)
	f.RunFor(300 * time.Millisecond)
	h := f.Health()
	if len(h) != 1 {
		t.Fatalf("health rows = %d", len(h))
	}
	if h[0].DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", h[0].DeviceState)
	}
	if h[0].FailsafeEvents != 0 {
		t.Fatal("failsafe in healthy factory")
	}
	if h[0].PrimaryTx < 100 || h[0].DeviceTx < 100 {
		t.Fatalf("traffic too low: %+v", h[0])
	}
}

func TestFactoryMultipleCellsIndependent(t *testing.T) {
	f := NewFactory(FactoryConfig{
		Seed:  2,
		Cells: []CellConfig{DefaultCell("a"), DefaultCell("b"), DefaultCell("c")},
	})
	f.Start(0)
	f.RunFor(200 * time.Millisecond)
	for _, h := range f.Health() {
		if h.DeviceState != iodevice.StateOperate {
			t.Fatalf("cell %s state = %v", h.Cell, h.DeviceState)
		}
	}
	// Kill one primary; only that cell suffers.
	f.Cells[1].Primary.Fail()
	f.RunFor(200 * time.Millisecond)
	h := f.Health()
	if h[1].DeviceState != iodevice.StateFailsafe {
		t.Fatalf("failed cell state = %v", h[1].DeviceState)
	}
	if h[0].DeviceState != iodevice.StateOperate || h[2].DeviceState != iodevice.StateOperate {
		t.Fatal("fault not contained to one cell")
	}
}

func TestFactoryInstaPLCSurvivesPrimaryLoss(t *testing.T) {
	cell := DefaultCell("ha")
	cell.Standby = true
	f := NewFactory(FactoryConfig{Seed: 3, Cells: []CellConfig{cell}, UseInstaPLC: true})
	f.Start(100 * time.Millisecond)
	f.RunFor(500 * time.Millisecond)
	f.Cells[0].Primary.Fail()
	f.RunFor(500 * time.Millisecond)
	h := f.Health()[0]
	if h.FailsafeEvents != 0 {
		t.Fatalf("failsafe events = %d with InstaPLC standby", h.FailsafeEvents)
	}
	if h.DeviceState != iodevice.StateOperate {
		t.Fatalf("device state = %v", h.DeviceState)
	}
	if f.App.Switchovers != 1 {
		t.Fatalf("switchovers = %d", f.App.Switchovers)
	}
}

func TestFactoryLogicRuns(t *testing.T) {
	cell := DefaultCell("logic")
	cell.Logic = &plc.ILProgram{Name: "copy", Insns: []plc.ILInsn{plc.LD(plc.I(0, 0)), plc.ST(plc.Q(0, 0))}}
	f := NewFactory(FactoryConfig{Seed: 4, Cells: []CellConfig{cell}})
	f.Start(0)
	f.RunFor(200 * time.Millisecond)
	if f.Cells[0].Primary.ScanCount < 50 {
		t.Fatalf("scans = %d", f.Cells[0].Primary.ScanCount)
	}
}

func TestFactoryRejectsEmptyConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty factory accepted")
		}
	}()
	NewFactory(FactoryConfig{})
}

func TestAvailabilityOrdering(t *testing.T) {
	cfg := DefaultAvailabilityConfig()
	results := RunAvailabilityComparison(cfg)
	byStrategy := map[HAStrategy]AvailabilityResult{}
	for _, r := range results {
		byStrategy[r.Strategy] = r
	}
	none := byStrategy[NoRedundancy].Report.Availability
	hw := byStrategy[HardwarePair].Report.Availability
	insta := byStrategy[InstaPLCPair].Report.Availability
	if !(none < hw && hw < insta) {
		t.Fatalf("availability ordering broken: none=%v hw=%v insta=%v", none, hw, insta)
	}
	// §2.2: the InstaPLC pair must reach six nines; a lone vPLC with
	// 2-minute restarts cannot.
	if !byStrategy[InstaPLCPair].Report.MeetsSixNines() {
		t.Fatalf("InstaPLC pair below six nines: %v", byStrategy[InstaPLCPair].Report)
	}
	if byStrategy[NoRedundancy].Report.MeetsSixNines() {
		t.Fatal("single instance magically reached six nines")
	}
}

func TestAvailabilityFailuresHappen(t *testing.T) {
	r := RunAvailability(DefaultAvailabilityConfig(), HardwarePair)
	// MTBF 10 days over 2 instances for a year: ~70 failures expected.
	if r.Failures < 20 || r.Failures > 200 {
		t.Fatalf("failures = %d", r.Failures)
	}
}

func TestAvailabilityRendering(t *testing.T) {
	out := RenderAvailability(RunAvailabilityComparison(DefaultAvailabilityConfig()))
	if !strings.Contains(out, "instaplc") || !strings.Contains(out, "nines") {
		t.Fatalf("render = %q", out)
	}
}

func TestTimingCheckPreemptRTFailsHardRequirements(t *testing.T) {
	results := Section21TimingCheck(host.PreemptRT, 1, 20000)
	byUseCase := map[string]TimingCheckResult{}
	for _, r := range results {
		byUseCase[r.Requirement.UseCase] = r
	}
	// The paper's point: even a tuned PREEMPT_RT kernel path cannot
	// meet the <1 µs worst-case jitter of motion control — kernel
	// spikes make it soft, not hard, real time.
	if byUseCase["motion control"].MeetsJitter {
		t.Fatal("full kernel path claimed to meet 1µs worst-case jitter")
	}
	// Relaxed process automation is fine.
	pa := byUseCase["process automation"]
	if !pa.MeetsLatency || !pa.MeetsJitter {
		t.Fatalf("process automation unmet: %+v", pa)
	}
}

func TestTimingCheckStandardWorseThanRT(t *testing.T) {
	rt := Section21TimingCheck(host.PreemptRT, 1, 20000)
	std := Section21TimingCheck(host.Standard, 1, 20000)
	if std[0].MeasuredWorstJitterNS <= rt[0].MeasuredWorstJitterNS {
		t.Fatal("standard kernel not noisier than PREEMPT_RT")
	}
}

func TestRenderTimingCheck(t *testing.T) {
	out := RenderTimingCheck(Section21TimingCheck(host.PreemptRT, 1, 5000))
	if !strings.Contains(out, "motion control") {
		t.Fatalf("render = %q", out)
	}
}

func TestTrafficMixCharacterization(t *testing.T) {
	r := Section23TrafficMix(1, trafficgen.DefaultMix)
	if r.Histogram[trafficgen.DeterministicMicroflow] != trafficgen.DefaultMix.VPLCFlows {
		t.Fatalf("microflows = %d", r.Histogram[trafficgen.DeterministicMicroflow])
	}
	if r.Misclassified != trafficgen.DefaultMix.VPLCFlows {
		t.Fatalf("misclassified = %d, want all vPLC flows", r.Misclassified)
	}
	out := RenderTrafficMix(r)
	if !strings.Contains(out, "deterministic-microflow") {
		t.Fatalf("render = %q", out)
	}
}

func TestFigureWrappersProduceOutput(t *testing.T) {
	if out, counts := Figure1(1); out == "" || len(counts) != 13 {
		t.Fatal("Figure1 wrapper broken")
	}
	rcfg := reflection.DefaultConfig()
	rcfg.Cycles = 40
	if out, res := Figure4Delay(rcfg); out == "" || len(res) != 6 {
		t.Fatal("Figure4Delay wrapper broken")
	}
	if out, res := Figure4Jitter(rcfg); out == "" || len(res) != 2 {
		t.Fatal("Figure4Jitter wrapper broken")
	}
	icfg := instaplc.DefaultExperimentConfig()
	icfg.Horizon = 600 * time.Millisecond
	icfg.FailAt = 400 * time.Millisecond
	if out, res := Figure5(icfg); out == "" || len(res.ToIO) == 0 {
		t.Fatal("Figure5 wrapper broken")
	}
	mcfg := mltopo.DefaultFigure6Config()
	mcfg.ClientCounts = []int{16}
	mcfg.Horizon = 300 * time.Millisecond
	if out, res := Figure6(mcfg); out == "" || len(res) != 6 {
		t.Fatal("Figure6 wrapper broken")
	}
}

func TestHAStrategyString(t *testing.T) {
	if NoRedundancy.String() != "no-redundancy" || InstaPLCPair.String() != "instaplc" {
		t.Fatal("strategy names")
	}
}

func TestTASAblationProtectsRTFlow(t *testing.T) {
	cfg := DefaultTASAblationConfig()
	cfg.Horizon = time.Second
	on := RunShaperAblation(cfg, ShaperTAS)
	off := RunShaperAblation(cfg, ShaperNone)
	if on.JitterP99NS >= off.JitterP99NS {
		t.Fatalf("TAS did not reduce jitter: on=%v off=%v", on.JitterP99NS, off.JitterP99NS)
	}
	// The guard window keeps RT jitter sub-µs despite 1500B bursts.
	if on.JitterP99NS > 1000 {
		t.Fatalf("TAS-on p99 jitter = %vns, want <1µs", on.JitterP99NS)
	}
	if on.RTDelivered < 900 {
		t.Fatalf("RT frames delivered = %d", on.RTDelivered)
	}
}

func TestShaperAblationThreeWays(t *testing.T) {
	cfg := DefaultTASAblationConfig()
	cfg.Horizon = time.Second
	none := RunShaperAblation(cfg, ShaperNone)
	tas := RunShaperAblation(cfg, ShaperTAS)
	cbs := RunShaperAblation(cfg, ShaperCBS)
	// Both shapers beat plain strict priority; TAS is the tightest.
	if !(tas.JitterP99NS < cbs.JitterP99NS && cbs.JitterP99NS < none.JitterP99NS) {
		t.Fatalf("jitter p99 ordering: tas=%.0f cbs=%.0f none=%.0f",
			tas.JitterP99NS, cbs.JitterP99NS, none.JitterP99NS)
	}
	if ShaperTAS.String() != "tas" || ShaperCBS.String() != "cbs" || ShaperNone.String() != "none" {
		t.Fatal("mode names")
	}
}
