package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
)

func TestParseInts(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"32,64,128", []int{32, 64, 128}, false},
		{" 1 ,, 2 ", []int{1, 2}, false}, // blanks between commas skipped
		{"7", []int{7}, false},
		{"", nil, true},
		{",,", nil, true},
		{"1,x", nil, true},
		{"0", nil, true},  // not positive
		{"-3", nil, true}, // not positive
	} {
		got, err := ParseInts(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseInts(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// -workers and -shards are one value: either spelling sets it, the
// command's default stands when neither is given (including the
// 0 = NumCPU convention), and with both the later one wins.
func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct {
		def  int
		args []string
		want int
	}{
		{0, nil, 0},
		{1, nil, 1},
		{0, []string{"-workers", "3"}, 3},
		{1, []string{"-shards", "4"}, 4},
		{1, []string{"-shards", "0"}, 0},
		{0, []string{"-workers", "3", "-shards", "8"}, 8},
		{0, []string{"-shards", "8", "-workers", "3"}, 3},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		var workers int
		registerWorkersFlag(fs, &workers, tc.def)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if workers != tc.want {
			t.Errorf("default %d, args %v: workers = %d, want %d", tc.def, tc.args, workers, tc.want)
		}
	}
}

// The flags must land on the flag set under the canonical names every
// command shares.
func TestRegisterTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel := registerTelemetryFlags(fs)
	for _, name := range []string{"trace", "stats", "cpuprofile", "int", "slo", "flightrec", "obs-addr", "obs-linger"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if tel.TracePath != "" || tel.Stats || tel.CPUProfilePath != "" {
		t.Fatalf("defaults not zero: %+v", tel)
	}
	// With no flag given, Begin materializes nothing: the nil
	// Tracer/Registry keep the run on the zero-overhead path.
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer != nil || tel.Registry != nil {
		t.Fatal("Begin allocated telemetry without flags")
	}
	if err := tel.End(); err != nil {
		t.Fatal(err)
	}
}

// Begin/End with every flag set: the tracer's events must come back out
// as a loadable JSONL trace plus a valid Chrome trace, the registry
// must exist, and the CPU profile file must be non-empty.
func TestBeginEndWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	tel := &Telemetry{
		TracePath:      filepath.Join(dir, "run.jsonl"),
		Stats:          true,
		CPUProfilePath: filepath.Join(dir, "cpu.prof"),
	}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer == nil || tel.Registry == nil {
		t.Fatal("Begin did not materialize tracer/registry")
	}
	tel.Tracer.HostTx("h", &frame.Frame{})
	if err := tel.End(); err != nil {
		t.Fatal(err)
	}

	jf, err := os.Open(tel.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	events, err := telemetry.ReadJSONL(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != telemetry.KindHostTx {
		t.Fatalf("replayed events = %+v", events)
	}

	cb, err := os.ReadFile(tel.TracePath + ".chrome.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb, &doc); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}

	if st, err := os.Stat(tel.CPUProfilePath); err != nil || st.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

func TestEndReportsUnwritableTracePath(t *testing.T) {
	tel := &Telemetry{TracePath: filepath.Join(t.TempDir(), "no-such-dir", "x.jsonl")}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	tel.Tracer.HostTx("h", &frame.Frame{})
	if err := tel.End(); err == nil {
		t.Fatal("End succeeded writing into a missing directory")
	}
}

func TestBeginReportsUnwritableProfilePath(t *testing.T) {
	tel := &Telemetry{CPUProfilePath: filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")}
	if err := tel.Begin(); err == nil {
		t.Fatal("Begin succeeded with unwritable -cpuprofile")
	}
}

// sinkOne feeds one INT-stamped frame into the collector, e2eNS after
// its source stamp — the shape experiments hand the CLI's collector.
func sinkOne(c *intnet.Collector, seq uint32, e2eNS int64) {
	f := &frame.Frame{}
	f.AttachINT("src", 1, seq, 1000, 4)
	c.SinkINT("dst", f, 1000+e2eNS)
}

// -slo alone implies INT collection, chains the watchdog on the
// collector, and End prints the breach summary without writing files.
func TestBeginSLOImpliesINTCollection(t *testing.T) {
	var out strings.Builder
	tel := &Telemetry{SLOSpec: "latency:*<1µs", Out: &out}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	if tel.Collector == nil || tel.Watchdog == nil {
		t.Fatalf("Begin with -slo: collector=%v watchdog=%v", tel.Collector, tel.Watchdog)
	}
	if tel.Tracer != nil || tel.Recorder != nil || tel.Registry != nil {
		t.Fatal("Begin materialized more than -slo asked for")
	}
	for seq := uint32(1); seq <= 3; seq++ { // 3 consecutive over-bound = breach
		sinkOne(tel.Collector, seq, 2000)
	}
	if err := tel.End(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "slo: 1 breach(es) recorded\n" {
		t.Fatalf("summary = %q", got)
	}
}

func TestBeginRejectsBadSLOSpec(t *testing.T) {
	tel := &Telemetry{SLOSpec: "latency:*>1µs"}
	err := tel.Begin()
	if err == nil || !strings.Contains(err.Error(), "-slo") {
		t.Fatalf("Begin with bad spec: %v", err)
	}
}

// The full in-band trio: -int writes the path digests, -slo adds the
// breach log next to them, -flightrec dumps the recorder (which rode
// the retain-off tracer Begin allocated just for it).
func TestEndWritesINTArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	tel := &Telemetry{
		INTPath:       filepath.Join(dir, "run.int.jsonl"),
		SLOSpec:       "latency:*<1µs",
		FlightRecPath: filepath.Join(dir, "run.rec.jsonl"),
		Out:           &out,
	}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	if tel.Tracer == nil {
		t.Fatal("-flightrec did not allocate its event-bus tracer")
	}
	if tel.Tracer.Len() != 0 {
		t.Fatal("flightrec-only tracer retains events")
	}
	for seq := uint32(1); seq <= 3; seq++ {
		sinkOne(tel.Collector, seq, 2000)
	}
	if err := tel.End(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ path, want string }{
		{tel.INTPath, `"type":"path"`},
		{tel.INTPath + ".slo.jsonl", `"objective":"latency:*\u003c1µs"`},
		{tel.FlightRecPath, "slo-breach"}, // breach trigger reached the recorder via the tracer
	} {
		b, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%s line %d is not JSON: %s", tc.path, i+1, line)
			}
		}
		if !strings.Contains(string(b), tc.want) {
			t.Fatalf("%s missing %q:\n%s", tc.path, tc.want, b)
		}
	}
	if !strings.Contains(out.String(), "slo: 1 breach(es) recorded") {
		t.Fatalf("summary = %q", out.String())
	}
}

// Merge-based parallel sweeps bypass the live observer; End must feed
// the merged trace through the recorder so -flightrec still dumps it.
func TestEndFlightRecCatchesUpFromMergedTrace(t *testing.T) {
	dir := t.TempDir()
	tel := &Telemetry{
		TracePath:     filepath.Join(dir, "run.jsonl"),
		FlightRecPath: filepath.Join(dir, "run.rec.jsonl"),
	}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	cell := telemetry.NewTracer(nil)
	cell.HostTx("h", &frame.Frame{})
	tel.Tracer.MergeFrom(cell)
	if err := tel.End(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tel.FlightRecPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "host-tx") {
		t.Fatalf("merged event did not reach the flight recorder:\n%s", b)
	}
}

func TestEndReportsUnwritableINTArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name string
		tel  Telemetry
		want string
	}{
		{"int", Telemetry{INTPath: filepath.Join(t.TempDir(), "no-such-dir", "x.jsonl")}, "-int"},
		{"flightrec", Telemetry{FlightRecPath: filepath.Join(t.TempDir(), "no-such-dir", "x.jsonl")}, "-flightrec"},
	} {
		if err := tc.tel.Begin(); err != nil {
			t.Fatal(err)
		}
		err := tc.tel.End()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: End into missing dir: %v", tc.name, err)
		}
	}
}

// TestBeginEndObsEndpoint: -obs-addr implies a registry, serves the
// endpoint for the run's lifetime (plus linger), announces the URL on
// Err — never Out, whose bytes CI compares — and End publishes a final
// snapshot before closing the listener.
func TestBeginEndObsEndpoint(t *testing.T) {
	var out, errw bytes.Buffer
	tel := &Telemetry{ObsAddr: "127.0.0.1:0", Out: &out, Err: &errw}
	if err := tel.Begin(); err != nil {
		t.Fatal(err)
	}
	if tel.Registry == nil {
		t.Fatal("-obs-addr did not imply a registry")
	}
	if tel.Obs == nil || tel.ObsServer == nil {
		t.Fatal("Begin did not start the obs server")
	}
	addr := tel.ObsServer.Addr()
	if !strings.Contains(errw.String(), "obs: serving on http://"+addr) {
		t.Fatalf("listen notice not on Err: %q", errw.String())
	}
	if out.Len() != 0 {
		t.Fatalf("obs wrote to Out: %q", out.String())
	}

	n := uint64(7)
	tel.Registry.Counter("cli_obs_total", nil, "", func() uint64 { return n })
	tel.PublishObs(nil, 42)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cli_obs_total 7") {
		t.Fatalf("metrics missing published counter:\n%s", body)
	}

	if err := tel.End(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("obs server still serving after End")
	}
	// Without -stats the registry snapshot must not leak into Out.
	if strings.Contains(out.String(), "metrics") {
		t.Fatalf("End printed the registry without -stats: %q", out.String())
	}
}
