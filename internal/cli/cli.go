// Package cli is what the steelnet experiment commands share: Main, the
// one command skeleton (flag set, -cpuprofile and the shared groups a
// command takes — -workers/-shards, -checkpoint/-resume, the
// observability flags -trace/-stats/-int/-slo/-flightrec/-obs-addr —
// Begin and End around the body, exit codes), and the comma-separated
// integer-list parser every sweep CLI needs. Keeping it in one place
// means every command spells the flags the same way, fails the same way
// and produces the same artifact layout.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	intnet "steelnet/internal/int"
	"steelnet/internal/obs"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
	"steelnet/internal/tshist"
)

// Telemetry is the observability flag set. When no flag is given the
// Tracer, Registry and Collector stay nil, every instrumentation call
// site short-circuits, and the run is byte- and allocation-identical
// to an uninstrumented binary.
type Telemetry struct {
	// TracePath receives -trace ("" disables tracing).
	TracePath string
	// Stats receives -stats.
	Stats bool
	// CPUProfilePath receives -cpuprofile ("" disables profiling).
	CPUProfilePath string
	// INTPath receives -int: collect in-band telemetry and write the
	// collector's path digests to this file as JSONL ("" disables).
	INTPath string
	// SLOSpec receives -slo: a comma-joined objective list in
	// "kind:target<bound" grammar (see intnet.ParseObjective). A
	// non-empty spec implies INT collection even without -int.
	SLOSpec string
	// FlightRecPath receives -flightrec: keep a bounded flight recorder
	// on the trace stream and dump it to this file after the run.
	FlightRecPath string
	// ObsAddr receives -obs-addr: serve live telemetry over HTTP on
	// this address ("" disables). Implies a metrics Registry.
	ObsAddr string
	// ObsLinger receives -obs-linger: keep the endpoint up this long
	// after the run finishes so external scrapers can read the final
	// state (CI starts the run in the background and curls it).
	ObsLinger time.Duration

	// Tracer and Registry are allocated by Begin when the matching flag
	// was set, Collector when -int or -slo was; Sinks hands all three to
	// an experiment config (set INT where Collector is non-nil).
	Tracer    *telemetry.Tracer
	Registry  *telemetry.Registry
	Collector *intnet.Collector
	// Watchdog is allocated by Begin when -slo was set and is attached
	// to Collector; breaches land in the trace (when tracing) and in
	// the breach log End writes.
	Watchdog *intnet.Watchdog
	// Recorder is allocated by Begin when -flightrec was set and rides
	// the Tracer's observer hook.
	Recorder *intnet.Recorder
	// Obs and ObsServer are allocated by Begin when -obs-addr was set:
	// the broker is the publish seam commands feed at safe points (End
	// always publishes a final snapshot), the server the HTTP frontend.
	Obs       *obs.Broker
	ObsServer *obs.Server

	// Out receives the -stats snapshot and the -slo summary line
	// (default os.Stdout); commands running in-process under test point
	// it at their own writer.
	Out io.Writer
	// Err receives operational notices (the obs listen URL, the linger
	// note). Default os.Stderr — never Out: several CI jobs byte-compare
	// stdout across runs, and a kernel-assigned port must not differ it.
	Err io.Writer

	cpuFile *os.File
}

// registerTelemetryFlags installs -cpuprofile on fs and, with sim, the
// flags that observe a simulated network.
func registerTelemetryFlags(fs *flag.FlagSet, sim bool) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.CPUProfilePath, "cpuprofile", "",
		"write a CPU profile to this `file` (sweep workers carry pprof labels)")
	if !sim {
		return t
	}
	fs.StringVar(&t.TracePath, "trace", "",
		"write a JSONL frame-lifecycle trace to this `file` (plus file.chrome.json for chrome://tracing / Perfetto)")
	fs.BoolVar(&t.Stats, "stats", false,
		"collect component metrics and print the registry snapshot after the run")
	fs.StringVar(&t.INTPath, "int", "",
		"collect in-band network telemetry and write per-path digests to this `file` as JSONL (plus file.slo.jsonl when -slo is set)")
	fs.StringVar(&t.SLOSpec, "slo", "",
		"watch SLO `objectives` (comma-joined \"kind:target<bound\", e.g. latency:refl<250us,loss:refl<0.01); implies INT collection")
	fs.StringVar(&t.FlightRecPath, "flightrec", "",
		"keep a bounded flight recorder on the trace stream and dump it to this `file` as JSONL after the run")
	fs.StringVar(&t.ObsAddr, "obs-addr", "",
		"serve live telemetry on this `addr` (host:port, port 0 picks one): Prometheus /metrics, JSON /shards profile, SSE /events, /debug/pprof; implies metrics collection")
	fs.DurationVar(&t.ObsLinger, "obs-linger", 0,
		"keep the -obs-addr endpoint up this `duration` after the run so scrapers can read the final state")
	return t
}

// registerWorkersFlag installs the shared execution-parallelism knob
// on fs under both of its spellings, -workers and -shards, as one value
// starting at 0 (NumCPU). It sets how many worker goroutines advance the
// deterministic partition of the work — the window shards of a sharded
// campus engine, the cells of a sweep grid elsewhere. The partition
// itself is part of the scenario (derived from the topology or the
// grid), so every output is byte-identical for any value; the flag only
// trades wall-clock time. With both spellings given, the later one on
// the command line wins.
func registerWorkersFlag(fs *flag.FlagSet, n *int) {
	fs.IntVar(n, "workers", 0,
		"worker goroutines advancing the partitioned simulation (0 = NumCPU, 1 = serial); any value produces byte-identical output")
	fs.IntVar(n, "shards", 0, "another spelling of -workers")
}

// Begin materializes what the parsed flags asked for: the tracer, the
// registry, INT collection, the SLO watchdog, the flight recorder and
// CPU profiling. Errors name the flag at fault.
func (t *Telemetry) Begin() error {
	var plan intnet.SLOPlan
	if t.SLOSpec != "" {
		var err error
		plan, err = intnet.ParseSLOPlan(t.SLOSpec)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	if t.TracePath != "" {
		// Unbound until an experiment adopts it (experiments Bind the
		// tracer to their engine before traffic flows).
		t.Tracer = telemetry.NewTracer(nil)
	}
	if t.FlightRecPath != "" {
		if t.Tracer == nil {
			// Flight recording without -trace: the tracer is a pure event
			// bus — nothing retained, only the recorder's bounded rings.
			t.Tracer = telemetry.NewTracer(nil)
			t.Tracer.SetRetain(false)
		}
		t.Recorder = intnet.NewRecorder()
		t.Recorder.Attach(t.Tracer)
	}
	if t.INTPath != "" || t.SLOSpec != "" {
		t.Collector = intnet.NewCollector()
		if t.SLOSpec != "" {
			t.Watchdog = intnet.NewWatchdog(plan, t.Tracer)
			t.Watchdog.Attach(t.Collector)
		}
	}
	if t.Stats {
		t.Registry = telemetry.NewRegistry()
	}
	if t.ObsAddr != "" {
		if t.Registry == nil {
			// The endpoint is useless without metrics; -obs-addr implies
			// collection even when -stats (printing) was not asked for.
			t.Registry = telemetry.NewRegistry()
		}
		t.Obs = obs.NewBroker()
		t.Obs.SetState("running")
		t.Obs.SetRecorder(tshist.NewRecorder(0, 0, 0))
		srv, err := obs.Listen(t.ObsAddr, t.Obs)
		if err != nil {
			return fmt.Errorf("-obs-addr: %w", err)
		}
		t.ObsServer = srv
		fmt.Fprintf(t.errw(), "obs: serving on http://%s (/metrics /shards /history /events /debug/pprof)\n", srv.Addr())
	}
	if t.CPUProfilePath != "" {
		f, err := os.Create(t.CPUProfilePath)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		t.cpuFile = f
	}
	return nil
}

// Sinks returns what Begin allocated as the one value every experiment
// config and every restore takes (all nil when no flag asked).
func (t *Telemetry) Sinks() sweep.Sinks {
	return sweep.Sinks{Trace: t.Tracer, Metrics: t.Registry, Collector: t.Collector}
}

// End flushes everything Begin started: it stops the CPU profile,
// writes the JSONL trace plus its Chrome/Perfetto twin, exports the
// INT digests, the SLO breach log and the flight-recorder dump, and
// prints the registry snapshot to stdout when -stats was set.
func (t *Telemetry) End() error {
	if t.cpuFile != nil {
		pprof.StopCPUProfile()
		err := t.cpuFile.Close()
		t.cpuFile = nil
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if t.TracePath != "" && t.Tracer != nil {
		if err := writeTraces(t.TracePath, t.Tracer.Events()); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if t.INTPath != "" && t.Collector != nil {
		if err := WriteFile(t.INTPath, t.Collector.WriteJSONL); err != nil {
			return fmt.Errorf("-int: %w", err)
		}
	}
	w := t.Out
	if w == nil {
		w = os.Stdout
	}
	if t.Watchdog != nil {
		if t.INTPath != "" {
			if err := WriteFile(t.INTPath+".slo.jsonl", t.Watchdog.WriteBreachLog); err != nil {
				return fmt.Errorf("-slo: %w", err)
			}
		}
		fmt.Fprintf(w, "slo: %d breach(es) recorded\n", len(t.Watchdog.Breaches()))
	}
	if t.FlightRecPath != "" && t.Recorder != nil {
		if err := t.Recorder.DumpToFile(t.FlightRecPath); err != nil {
			return fmt.Errorf("-flightrec: %w", err)
		}
	}
	if t.Stats && t.Registry != nil {
		fmt.Fprint(w, t.Registry.Snapshot())
	}
	if t.Obs != nil {
		// Final snapshot: whatever the command published (or didn't)
		// during the run, the endpoint ends up serving the completed
		// state. -1 marks "no clock here" — commands that publish
		// in-run pass real sim times via PublishObs.
		if t.Watchdog != nil {
			t.Obs.PublishBreaches(t.Watchdog.Breaches())
		}
		if err := t.Obs.Publish(t.Registry, nil, -1); err != nil {
			return fmt.Errorf("-obs-addr: %w", err)
		}
		t.Obs.SetState("done")
	}
	if t.ObsServer != nil {
		if t.ObsLinger > 0 {
			fmt.Fprintf(t.errw(), "obs: lingering %v for scrapes\n", t.ObsLinger)
			time.Sleep(t.ObsLinger)
		}
		t.ObsServer.Close()
		t.ObsServer = nil
	}
	return nil
}

// errw resolves the notice writer (default os.Stderr).
func (t *Telemetry) errw() io.Writer {
	if t.Err != nil {
		return t.Err
	}
	return os.Stderr
}

// PublishObs publishes a live snapshot (metrics plus an optional shard
// profile) at a simulation safe point. No-op without -obs-addr, so
// commands call it unconditionally from their run loops.
func (t *Telemetry) PublishObs(profile any, simNS int64) {
	if t.Obs == nil {
		return
	}
	if t.Watchdog != nil {
		t.Obs.PublishBreaches(t.Watchdog.Breaches())
	}
	if err := t.Obs.Publish(t.Registry, profile, simNS); err != nil {
		fmt.Fprintf(t.errw(), "obs: publish: %v\n", err)
	}
}

// WriteFile creates path and streams write into it. Exported so the
// steelnetd command reuses the same dump idiom for its publish logs.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraces writes the JSONL trace to path and the Chrome trace to
// path+".chrome.json".
func writeTraces(path string, events []telemetry.Event) error {
	err := WriteFile(path, func(w io.Writer) error { return telemetry.WriteJSONL(w, events) })
	if err != nil {
		return err
	}
	return WriteFile(path+".chrome.json", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, events) })
}

// ParseInts parses a comma-separated list of positive integers
// ("32,64,128"); blanks between commas are skipped, an empty list is an
// error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
