package reflection

import (
	"fmt"

	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/tap"
)

// Reflector is the device under test: a host whose NIC runs an XDP
// program. Incoming frames pay the NIC→PCIe→driver path from the host
// model, then the program executes; XDP_TX verdicts re-cross PCIe and
// return to the wire. XDP_PASS frames are counted and discarded (no
// full-stack consumer is attached in this experiment).
type Reflector struct {
	host    *simnet.Host
	stack   *host.Stack
	variant Variant
	costs   *ebpf.CostModel
	rng     *sim.RNG
	jobs    *reflectJob // free list

	// Reflected, Passed and Aborted count program verdicts.
	Reflected, Passed, Aborted uint64
}

// reflectJob carries one probe from the wire through the XDP program
// and back. Like simnet's flight it owns its closures and recycles
// through a per-reflector free list; pkt is the packet buffer the
// program runs on, kept from probe to probe. Nothing is built per
// probe once as many jobs exist as probes are ever inside the host.
type reflectJob struct {
	r        *Reflector
	f        *frame.Frame
	size     int // f's wire length at ingress
	pkt      []byte
	run      func()
	transmit func()
	next     *reflectJob
}

// NewReflector attaches variant v to a new reflector host.
func NewReflector(e *sim.Engine, name string, mac frame.MAC, stk *host.Stack, v Variant, costs *ebpf.CostModel) *Reflector {
	r := &Reflector{
		host:    simnet.NewHost(e, name, mac),
		stack:   stk,
		variant: v,
		costs:   costs,
		rng:     e.RNG("reflector/" + name),
	}
	r.host.OnReceive(r.onFrame)
	return r
}

// Host returns the underlying simnet host (for wiring).
func (r *Reflector) Host() *simnet.Host { return r.host }

// UsePool puts the reflector on p, the free list the sender draws from
// (see simnet.Host.UsePool): unreflected probes end there.
func (r *Reflector) UsePool(p *frame.Pool) { r.host.UsePool(p) }

func (r *Reflector) getJob() *reflectJob {
	j := r.jobs
	if j == nil {
		j = &reflectJob{r: r}
		j.run = func() { j.r.runProgram(j) }
		j.transmit = func() { j.r.transmit(j) }
	} else {
		r.jobs = j.next
		j.next = nil
	}
	return j
}

// putJob recycles j and returns the frame it carried.
func (r *Reflector) putJob(j *reflectJob) *frame.Frame {
	f := j.f
	j.f = nil
	j.next = r.jobs
	r.jobs = j
	return f
}

func (r *Reflector) onFrame(f *frame.Frame) {
	e := r.host.Engine()
	// INT must terminate here: only the wire bytes reach the program, so
	// a stack surviving past this point would silently vanish in the
	// marshal/unmarshal round trip. A sink on the host has stripped it;
	// with none attached the stack ends here unread.
	r.host.Pool().StripINT(f)
	j := r.getJob()
	j.f = f
	j.size = f.WireLen()
	e.After(r.stack.RxToXDP(j.size), j.run)
}

// runProgram executes the XDP program on the probe's octets. On XDP_TX
// the frame is rebuilt in place from what the program left in the
// packet buffer — as a frame fresh off the wire, without metadata — and
// queued for transmission; any other verdict consumes it.
func (r *Reflector) runProgram(j *reflectJob) {
	e := r.host.Engine()
	f := j.f
	j.pkt = f.MarshalInto(j.pkt)
	res, err := r.variant.Program.Run(j.pkt, e.Now(), r.costs, r.rng)
	if err == nil && res.Verdict == ebpf.XDPTx {
		payload := f.Payload[:0]
		if err = frame.UnmarshalInto(f, j.pkt); err == nil {
			f.Payload = append(payload, f.Payload...) // j.pkt is reused; detach
			e.After(res.Cost+r.stack.XDPToWire(j.size), j.transmit)
			return
		}
	}
	if err == nil && res.Verdict == ebpf.XDPPass {
		r.Passed++
	} else {
		r.Aborted++
	}
	r.host.Pool().Put(r.putJob(j))
}

func (r *Reflector) transmit(j *reflectJob) {
	f := r.putJob(j)
	r.Reflected++
	// Bypass Host.Send: XDP_TX must not re-stamp the source MAC — the
	// program already swapped the addresses.
	if !r.host.Port().Send(f) {
		r.host.Pool().Put(f) // refused at egress: still ours
	}
}

// Sender emits cyclic probe flows through its single port.
type Sender struct {
	host   *simnet.Host
	dst    frame.MAC
	size   int
	seqs   map[uint32]uint32
	ticker []*sim.Ticker
	intOn  bool
}

// NewSender creates a probe source addressed at dst with the given probe
// payload size (>= 24).
func NewSender(e *sim.Engine, name string, mac, dst frame.MAC, size int) *Sender {
	s := &Sender{
		host: simnet.NewHost(e, name, mac),
		dst:  dst,
		size: size,
		seqs: make(map[uint32]uint32),
	}
	// Reflected probes terminate here; recycling them makes the probe
	// stream allocation-free in steady state.
	s.host.OnReceive(func(f *frame.Frame) { s.host.Pool().Put(f) })
	return s
}

// UsePool puts the sender on p (see simnet.Host.UsePool): probes and
// their INT stacks come from it, reflections recycle into fresh ones.
func (s *Sender) UsePool(p *frame.Pool) { s.host.UsePool(p) }

// Host returns the underlying simnet host (for wiring).
func (s *Sender) Host() *simnet.Host { return s.host }

// EnableINT makes every probe carry an INT stack whose flow and
// sequence mirror the probe's own identifiers.
func (s *Sender) EnableINT() { s.intOn = true }

// StartFlow begins emitting flowID probes every cycle, first at start.
func (s *Sender) StartFlow(flowID uint32, start sim.Time, cycle sim.Duration) {
	e := s.host.Engine()
	t := e.Every(start, cycle, func() {
		seq := s.seqs[flowID]
		s.seqs[flowID] = seq + 1
		f := s.host.Pool().Get(s.size)
		if err := frame.MarshalProbeInto(frame.Probe{Seq: seq, FlowID: flowID}, f.Payload); err != nil {
			panic(err)
		}
		f.Dst = s.dst
		f.Type = frame.TypeBenchEcho
		f.Meta = frame.Meta{FlowID: flowID}
		if s.intOn {
			// Seq is 1-based on the wire: the collector reads sequence 0
			// as "no predecessor" when tracking loss.
			s.host.Pool().AttachINT(f, s.host.Name(), flowID, seq+1, int64(e.Now()), 0)
		}
		if !s.host.Send(f) {
			s.host.Pool().Put(f) // egress drop: safe to recycle immediately
		}
	})
	s.ticker = append(s.ticker, t)
}

// Stop halts all flows.
func (s *Sender) Stop() {
	for _, t := range s.ticker {
		t.Stop()
	}
}

// Config parameterizes one reflection experiment.
type Config struct {
	Seed      uint64
	Profile   host.Profile // reflector host stack
	Costs     ebpf.CostModel
	LinkBps   float64      // sender—tap—reflector link rate
	Cycle     sim.Duration // probe period per flow
	Cycles    int          // probes per flow
	Flows     int          // concurrent flows
	ProbeSize int          // probe payload bytes
	TapCfg    tap.Config
	// Workers bounds the goroutines used by multi-cell sweeps
	// (RunAllVariants, RunFlowSweep). <= 0 selects runtime.NumCPU();
	// 1 runs serially. Results are identical for any value — each cell
	// runs on its own engine and results merge in input order.
	Workers int
	// INT attaches an in-band telemetry stack to every probe at the
	// sender; the tap transit-stamps it and the reflector's ingress
	// terminates it into Collector — the per-hop decomposition of the
	// one-way latency the tap can otherwise only measure end to end.
	INT bool
	// Sinks are the telemetry attachments. Trace records the frame
	// lifecycle of the run and Metrics receives the component counters;
	// Collector receives terminated INT stacks (nil with INT set: the
	// harness collects into one of its own). How a multi-cell
	// sweep shares them among its cells is sweep.RunCells' business.
	sweep.Sinks
}

// DefaultConfig is the paper-like setup: 100 Mb/s industrial links, 2 ms
// cycle, PREEMPT_RT host, 8 ns tap.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		Profile:   host.PreemptRT,
		Costs:     ebpf.DefaultCosts,
		LinkBps:   100e6,
		Cycle:     2 * sim.Millisecond,
		Cycles:    2000,
		Flows:     1,
		ProbeSize: 32,
		TapCfg:    tap.DefaultConfig,
	}
}

// Result is the measured delay distribution for one variant/flow-count.
type Result struct {
	Variant string
	Flows   int
	// Delays holds tap-measured round-trip delays in microseconds.
	Delays *metrics.Series
	// Jitter holds |delay - median| in nanoseconds.
	Jitter *metrics.Series
	// RingRecords is the number of ring-buffer records the variant
	// produced (0 for non-ring variants).
	RingRecords uint64
}

// Run executes one experiment with the given variant and returns the
// tap-derived delay and jitter distributions. It is the
// straight-through form of the Harness.
func Run(cfg Config, v Variant) Result {
	h := NewHarness(cfg, v)
	h.AdvanceTo(h.Horizon())
	return h.Result()
}

// ConsecutiveJitterEvents scans the per-cycle jitter series for runs of
// at least minRun consecutive cycles above thresholdNS — the
// "consecutive jitter events … cycle after cycle" §2.1 faults existing
// evaluations for not reporting, because they are what expire PROFINET
// watchdog counters.
func (r Result) ConsecutiveJitterEvents(thresholdNS float64, minRun int) []metrics.BurstEvent {
	return metrics.Bursts(r.Jitter, thresholdNS, minRun)
}

// WouldTripWatchdog reports whether the measured jitter pattern would
// have halted a device with the given consecutive-miss budget, treating
// any cycle with jitter above thresholdNS as a missed deadline.
func (r Result) WouldTripWatchdog(thresholdNS float64, watchdogCycles int) bool {
	return metrics.WouldTripWatchdog(r.Jitter, thresholdNS, watchdogCycles)
}

// runGrid runs one Fig. 4 grid through the sweep driver: cell i is the
// sweep's Config with the telemetry sinks the driver assigned to it.
// Which sinks merge, which force the grid serial, and what a
// checkpoint path adds is sweep.RunCells' business alone.
func runGrid(cfg Config, kind string, n int, path string, cell func(i int, c Config) Result) ([]Result, error) {
	ck := sweep.Checkpointer[Result]{Path: path, Kind: kind, Walk: WalkResult}
	return sweep.RunCells(cfg.Workers, n, nil, ck, cfg.Sinks, func(i int, s sweep.Sinks) Result {
		c := cfg
		c.Sinks = s
		return cell(i, c)
	})
}

// RunAllVariantsResumable reproduces Fig. 4 (left): the delay CDF of
// all six variants under cfg, one sweep cell per variant. Cells run
// across cfg.Workers goroutines; the result order (and thus every
// rendered table) matches a serial run. Each variant is assembled,
// verified and compiled exactly once; cells get fresh-state clones
// sharing the compiled code. With a path, completed variants persist
// there and are skipped on restart.
func RunAllVariantsResumable(cfg Config, path string) ([]Result, error) {
	protos := AllVariants()
	return runGrid(cfg, "figure4-delay", len(protos), path, func(i int, c Config) Result {
		return Run(c, protos[i].CloneFresh())
	})
}

// RunAllVariants is RunAllVariantsResumable without a checkpoint.
func RunAllVariants(cfg Config) []Result {
	results, _ := RunAllVariantsResumable(cfg, "") // no path: no file I/O, no error
	return results
}

// RunFlowSweepResumable reproduces Fig. 4 (right): jitter CDFs of the
// Base variant for each flow count, one sweep cell per count, with the
// same checkpointing as RunAllVariantsResumable. The counts may come
// from a command line: one no cell can be built from is an error,
// before any cell runs.
func RunFlowSweepResumable(cfg Config, flowCounts []int, path string) ([]Result, error) {
	for _, n := range flowCounts {
		c := cfg
		c.Flows = n
		if err := checkConfig(c); err != nil {
			return nil, err
		}
	}
	proto := NewBase()
	return runGrid(cfg, "figure4-jitter", len(flowCounts), path, func(i int, c Config) Result {
		c.Flows = flowCounts[i]
		return Run(c, proto.CloneFresh())
	})
}

// RunFlowSweep is RunFlowSweepResumable without a checkpoint, for
// counts the program wrote itself: a bad one is a bug, and panics.
func RunFlowSweep(cfg Config, flowCounts []int) []Result {
	results, err := RunFlowSweepResumable(cfg, flowCounts, "") // no path: no file I/O
	if err != nil {
		panic(err.Error())
	}
	return results
}

// DelayTable renders Fig. 4 (left) as a percentile table (µs).
func DelayTable(results []Result) string {
	series := make(map[string]*metrics.Series, len(results))
	order := make([]string, 0, len(results))
	for _, r := range results {
		series[r.Variant] = r.Delays
		order = append(order, r.Variant)
	}
	return metrics.CDFTable("Figure 4 (left): reflection delay CDF by eBPF variant", "µs", series, order)
}

// DecompositionTable renders the INT per-hop latency decomposition: for
// every observed path, each hop's residence-time statistics next to the
// end-to-end figures, with the unattributed remainder (wire serialization,
// propagation and host ingress — everything between the stamped hops)
// made explicit. This is the view the tap alone cannot give: the tap
// sees one number per round trip, INT splits it per device.
func DecompositionTable(digests []*intnet.PathDigest) string {
	t := metrics.NewTable("INT per-hop latency decomposition (µs)",
		"path", "hop", "frames", "mean", "min", "max", "maxQ")
	us := func(ns float64) string { return fmt.Sprintf("%.3f", ns/1e3) }
	for _, p := range digests {
		label := fmt.Sprintf("%s->%s/%d", p.Source, p.Sink, p.Flow)
		var attributed float64
		for _, h := range p.HopAggs {
			attributed += h.MeanNS()
			t.AddRow(label, h.Node, fmt.Sprintf("%d", h.Count),
				us(h.MeanNS()), us(float64(h.MinNS)), us(float64(h.MaxNS)),
				fmt.Sprintf("%d", h.QueueMax))
		}
		t.AddRow(label, "(unattributed)", fmt.Sprintf("%d", p.Count),
			us(p.MeanNS()-attributed), "", "", "")
		t.AddRow(label, "end-to-end", fmt.Sprintf("%d", p.Count),
			us(p.MeanNS()), us(float64(p.MinNS)), us(float64(p.MaxNS)), "")
	}
	return t.String()
}

// JitterTable renders Fig. 4 (right) as a percentile table (ns).
func JitterTable(results []Result) string {
	series := make(map[string]*metrics.Series, len(results))
	order := make([]string, 0, len(results))
	for _, r := range results {
		name := fmt.Sprintf("%d flow(s)", r.Flows)
		series[name] = r.Jitter
		order = append(order, name)
	}
	return metrics.CDFTable("Figure 4 (right): reflection jitter CDF by flow count", "ns", series, order)
}
