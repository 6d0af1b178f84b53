package core

import (
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// TASAblationConfig parameterizes the time-aware-shaping ablation: a
// cyclic RT control flow shares a switch egress with bursty best-effort
// traffic; with the 802.1Qbv guard schedule the RT flow's jitter stays
// bounded, without it the bursts push RT frames around — the mechanism
// TSN exists for (§1.1).
type TASAblationConfig struct {
	Seed uint64
	// Cycle is the RT flow's period; RTWindow the protected gate slice.
	Cycle    time.Duration
	RTWindow time.Duration
	// BEBurst is the number of 1500-byte best-effort frames blasted per
	// burst; BEEvery the burst period.
	BEBurst int
	BEEvery time.Duration
	// Horizon bounds the run.
	Horizon time.Duration
	// LinkBps is the shared egress rate.
	LinkBps float64
}

// DefaultTASAblationConfig mixes a 1 ms control flow with heavy bursts
// on a 100 Mb/s industrial link.
func DefaultTASAblationConfig() TASAblationConfig {
	return TASAblationConfig{
		Seed:     1,
		Cycle:    time.Millisecond,
		RTWindow: 200 * time.Microsecond,
		BEBurst:  12,
		BEEvery:  5 * time.Millisecond,
		Horizon:  2 * time.Second,
		LinkBps:  100e6,
	}
}

// TASAblationResult reports RT-flow timing with and without shaping.
type TASAblationResult struct {
	// JitterP99NS and JitterMaxNS summarize |interarrival - cycle|.
	JitterP99NS, JitterMaxNS float64
	// RTDelivered counts RT frames that made it.
	RTDelivered int
}

// ShaperMode selects the egress discipline under ablation.
type ShaperMode int

// Shaper modes.
const (
	// ShaperNone: strict priority only.
	ShaperNone ShaperMode = iota
	// ShaperTAS: 802.1Qbv guard-window gate schedule.
	ShaperTAS
	// ShaperCBS: 802.1Qav credit shaping of the best-effort class.
	ShaperCBS
)

// String names the mode.
func (m ShaperMode) String() string {
	switch m {
	case ShaperTAS:
		return "tas"
	case ShaperCBS:
		return "cbs"
	}
	return "none"
}

// burstSrc is a RunShaperAblation source as the handler of its ticks:
// n frames of one class to sink per tick.
type burstSrc struct {
	host, sink *simnet.Host
	n, size    int
	prio       frame.PCP
	typ        frame.EtherType
}

func (b *burstSrc) Fire() {
	for range b.n {
		b.host.Send(&frame.Frame{
			Dst: b.sink.MAC(), Tagged: true, Priority: b.prio, VID: 10,
			Type: b.typ, Payload: make([]byte, b.size),
		})
	}
}

// RunShaperAblation measures the RT flow's inter-arrival jitter at the
// sink under the chosen egress discipline.
func RunShaperAblation(cfg TASAblationConfig, mode ShaperMode) TASAblationResult {
	e := sim.NewEngine(cfg.Seed)
	sw := simnet.NewSwitch(e, "sw", 3, simnet.DefaultSwitchConfig)
	rtSrc := simnet.NewHost(e, "rt", frame.NewMAC(1))
	beSrc := simnet.NewHost(e, "be", frame.NewMAC(2))
	sink := simnet.NewHost(e, "sink", frame.NewMAC(3))
	simnet.Connect(e, "rt", rtSrc.Port(), sw.Port(0), cfg.LinkBps, 500*sim.Nanosecond)
	simnet.Connect(e, "be", beSrc.Port(), sw.Port(1), cfg.LinkBps, 500*sim.Nanosecond)
	simnet.Connect(e, "sink", sink.Port(), sw.Port(2), cfg.LinkBps, 500*sim.Nanosecond)
	sw.AddStatic(sink.MAC(), 2)
	switch mode {
	case ShaperTAS:
		sw.Port(2).SetTAS(simnet.RTGuardSchedule(cfg.Cycle, cfg.RTWindow))
	case ShaperCBS:
		// Shape the best-effort class to 30% of the link so its bursts
		// spread out instead of monopolizing the wire.
		sw.Port(2).SetShaper(simnet.NewCreditShaper(frame.PrioBestEffort, cfg.LinkBps*0.3))
	}

	var arrivals []int64
	sink.OnReceive(func(f *frame.Frame) {
		if f.EffectivePriority() == frame.PrioRT {
			arrivals = append(arrivals, int64(e.Now()))
		}
	})
	e.Every(0, cfg.Cycle, &burstSrc{rtSrc, sink, 1, 40, frame.PrioRT, frame.TypeProfinet})
	e.Every(0, cfg.BEEvery, &burstSrc{beSrc, sink, cfg.BEBurst, 1500, frame.PrioBestEffort, frame.TypeIPv4})
	e.RunUntil(sim.Time(cfg.Horizon))

	jit := metrics.InterArrivalJitter(arrivals, cfg.Cycle)
	return TASAblationResult{
		JitterP99NS: jit.P99(),
		JitterMaxNS: jit.Max(),
		RTDelivered: len(arrivals),
	}
}
