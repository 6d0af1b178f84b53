// Package host models the end-host path the paper blames for broken OT
// timing (§2.1): NIC processing, the PCIe crossing whose per-packet toll
// dominates small-frame latency (>90% of NIC latency per [9,77]), the
// kernel path (standard vs PREEMPT_RT scheduling noise), and host-level
// contention that grows with the number of co-resident flows (§2.1,
// Fig. 4 right). The reflection harness and the vPLC runtime both sample
// their per-packet and per-cycle delays from this model.
package host

import (
	"fmt"

	"steelnet/internal/sim"
)

// Profile parameterizes one host software/hardware stack.
type Profile struct {
	Name string

	// PCIeBase is the fixed cost of one PCIe crossing; PCIePerByteNs adds
	// the payload-size-dependent part. Small industrial frames pay
	// almost the whole base cost per packet, which is the paper's point.
	PCIeBase      sim.Duration
	PCIePerByteNs float64

	// NICBase is MAC/DMA processing per packet.
	NICBase sim.Duration

	// KernelBase is the fixed driver+softirq cost up to the XDP hook.
	KernelBase sim.Duration

	// SchedJitterSD is the standard deviation of scheduling noise added
	// to every crossing.
	SchedJitterSD sim.Duration

	// SpikeProb is the per-packet probability of a kernel-induced latency
	// spike (IRQ storms, timer ticks, memory stalls); SpikeScale is the
	// Pareto minimum of the spike size. PREEMPT_RT reduces both but — as
	// §2.1 stresses — does not eliminate them.
	SpikeProb  float64
	SpikeScale sim.Duration

	// ContentionPerFlowSD is extra jitter standard deviation added per
	// additional co-resident flow sharing the host (NIC RSS, NUMA and
	// cache contention per [22,107]).
	ContentionPerFlowSD sim.Duration
}

// PreemptRT is a tuned PREEMPT_RT host: tight scheduling noise, rare and
// small spikes. Values are calibrated so a reflection experiment
// reproduces Fig. 4's bands: ~10-20 µs one-way XDP delay and sub-µs
// jitter for one flow.
var PreemptRT = Profile{
	Name:          "preempt-rt",
	PCIeBase:      900 * sim.Nanosecond,
	PCIePerByteNs: 0.8,
	NICBase:       500 * sim.Nanosecond,
	KernelBase:    2500 * sim.Nanosecond,
	SchedJitterSD: 25 * sim.Nanosecond,
	SpikeProb:     0.0008,
	SpikeScale:    300 * sim.Nanosecond,

	ContentionPerFlowSD: 7 * sim.Nanosecond,
}

// Standard is a stock low-latency-tuned kernel without PREEMPT_RT:
// same base path, noticeably noisier tail.
var Standard = Profile{
	Name:          "standard",
	PCIeBase:      900 * sim.Nanosecond,
	PCIePerByteNs: 0.8,
	NICBase:       500 * sim.Nanosecond,
	KernelBase:    2500 * sim.Nanosecond,
	SchedJitterSD: 120 * sim.Nanosecond,
	SpikeProb:     0.02,
	SpikeScale:    2 * sim.Microsecond,

	ContentionPerFlowSD: 18 * sim.Nanosecond,
}

// Stack is a live host stack: a profile plus dynamic contention state.
type Stack struct {
	Profile Profile
	rng     *sim.RNG
	flows   int
}

// NewStack builds a stack drawing noise from rng.
func NewStack(p Profile, rng *sim.RNG) *Stack {
	if rng == nil {
		panic("host: nil RNG")
	}
	return &Stack{Profile: p, rng: rng, flows: 1}
}

// SetActiveFlows sets the number of concurrent flows sharing the host.
// Fewer than 1 is clamped to 1.
func (s *Stack) SetActiveFlows(n int) {
	if n < 1 {
		n = 1
	}
	s.flows = n
}

// ActiveFlows returns the current contention level.
func (s *Stack) ActiveFlows() int { return s.flows }

// jitter draws one sample of scheduling + contention noise (>= 0).
func (s *Stack) jitter() sim.Duration {
	sd := float64(s.Profile.SchedJitterSD) + float64(float64(s.Profile.ContentionPerFlowSD)*float64(s.flows-1))
	j := s.rng.Norm(0, sd)
	if j < 0 {
		j = -j
	}
	d := sim.Duration(j)
	if s.Profile.SpikeProb > 0 && s.rng.Bool(s.Profile.SpikeProb) {
		d += sim.Duration(s.rng.Pareto(float64(s.Profile.SpikeScale), 2.0))
	}
	return d
}

// RxToXDP samples the delay from wire arrival to the XDP hook for a
// packet of size bytes: NIC + PCIe + driver path + noise.
func (s *Stack) RxToXDP(size int) sim.Duration {
	return s.Profile.NICBase +
		s.pcie(size) +
		s.Profile.KernelBase/2 + // XDP runs early in the driver path
		s.jitter()
}

// XDPToWire samples the delay from an XDP_TX verdict back to the wire:
// the reflected packet re-crosses PCIe and the NIC.
func (s *Stack) XDPToWire(size int) sim.Duration {
	return s.pcie(size) + s.Profile.NICBase + s.jitter()
}

// FullKernelRx samples the delay from wire to a userspace socket — the
// path a vPLC without XDP acceleration pays on every cycle.
func (s *Stack) FullKernelRx(size int) sim.Duration {
	return s.Profile.NICBase + s.pcie(size) + s.Profile.KernelBase + s.jitter() + s.jitter()
}

// FullKernelTx samples the userspace-to-wire delay.
func (s *Stack) FullKernelTx(size int) sim.Duration {
	return s.Profile.KernelBase + s.pcie(size) + s.Profile.NICBase + s.jitter() + s.jitter()
}

// SchedulingNoise samples one wakeup-latency deviation for a periodic
// task (a vPLC scan cycle wakeup).
func (s *Stack) SchedulingNoise() sim.Duration { return s.jitter() }

func (s *Stack) pcie(size int) sim.Duration {
	if size < 0 {
		size = 0
	}
	return s.Profile.PCIeBase + sim.Duration(float64(size)*s.Profile.PCIePerByteNs)
}

// String identifies the stack.
func (s *Stack) String() string {
	return fmt.Sprintf("host.Stack{%s, flows=%d}", s.Profile.Name, s.flows)
}
