package sweep

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
)

const toyCells = 12

func toyCheckpointer(path string) Checkpointer[int] {
	return Checkpointer[int]{
		Path:   path,
		Kind:   "toy",
		Encode: func(e *checkpoint.Encoder, v int) { e.Int(v) },
		Decode: func(d *checkpoint.Decoder) int { return d.Int() },
	}
}

// toyCell is a cell body that reports into whatever sinks the driver
// hands it: i+2 traced frames and as many INT observations, all on the
// same (sink, flow) with sequence numbers restarting at 1 — the shape
// that makes a collector shared across cells invent reorders.
func toyCell(calls *atomic.Int64) func(i int, s Sinks) int {
	return func(i int, s Sinks) int {
		calls.Add(1)
		for seq := 1; seq <= i+2; seq++ {
			f := &frame.Frame{}
			s.Trace.HostTx("cam", f)
			if s.Collector != nil {
				f.AttachINT("cam", 1, uint32(seq), int64(100*seq), 0)
				s.Collector.SinkINT("srv", f, int64(100*seq+40+i))
			}
		}
		return i * i
	}
}

// export renders both mergeable sinks the way the CLIs do.
func export(t *testing.T, s Sinks) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, s.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Collector.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkToyResults(t *testing.T, got []int) {
	t.Helper()
	if len(got) != toyCells {
		t.Fatalf("got %d results, want %d", len(got), toyCells)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunCellsMergesTelemetryInCellOrder: the merged tracer and
// collector are byte-identical at every worker count, frame ids stay
// dense across cells, and per-flow sequence state is per cell.
func TestRunCellsMergesTelemetryInCellOrder(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		own := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		var calls atomic.Int64
		got, err := RunCells(workers, toyCells, toyCheckpointer(""), own, toyCell(&calls))
		if err != nil {
			t.Fatal(err)
		}
		checkToyResults(t, got)
		frames := 0
		for i := 0; i < toyCells; i++ {
			frames += i + 2
		}
		for k, e := range own.Trace.Events() {
			if e.Frame != uint64(k+1) {
				t.Fatalf("workers=%d: event %d carries frame id %d, want dense ids", workers, k, e.Frame)
			}
		}
		received, lost, reordered := own.Collector.FlowLoss("srv", 1)
		if received != uint64(frames) || lost != 0 || reordered != 0 {
			t.Fatalf("workers=%d: flow counters received=%d lost=%d reordered=%d, want %d/0/0",
				workers, received, lost, reordered, frames)
		}
		b := export(t, own)
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("workers=%d: merged telemetry differs from workers=1", workers)
		}
	}
}

// TestRunCellsLiveSinksForceSerial: a registry, or a collector with an
// OnSink subscriber, cannot be merged afterwards — the sweep runs one
// cell at a time, feeds them live, and still keeps sequence state per
// cell.
func TestRunCellsLiveSinksForceSerial(t *testing.T) {
	var mergedOnly []byte
	{
		own := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		var calls atomic.Int64
		if _, err := RunCells(1, toyCells, toyCheckpointer(""), own, toyCell(&calls)); err != nil {
			t.Fatal(err)
		}
		mergedOnly = export(t, own)
	}
	cases := map[string]func() Sinks{
		"registry": func() Sinks {
			return Sinks{Trace: telemetry.NewTracer(nil), Metrics: telemetry.NewRegistry(), Collector: intnet.NewCollector()}
		},
		"onsink": func() Sinks {
			return Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			own := mk()
			var seen, lost atomic.Int64
			if name == "onsink" {
				own.Collector.OnSink = func(o intnet.Observation) {
					seen.Add(1)
					lost.Add(int64(o.NewlyLost))
				}
			}
			var running, overlap, calls atomic.Int64
			body := toyCell(&calls)
			_, err := RunCells(8, toyCells, toyCheckpointer(""), own, func(i int, s Sinks) int {
				if running.Add(1) > 1 {
					overlap.Add(1)
				}
				defer running.Add(-1)
				if s.Trace != own.Trace || s.Metrics != own.Metrics {
					t.Errorf("cell %d: live sweep must hand cells the caller's tracer and registry", i)
				}
				if s.Collector == own.Collector {
					t.Errorf("cell %d shares the caller's collector", i)
				}
				return body(i, s)
			})
			if err != nil {
				t.Fatal(err)
			}
			if overlap.Load() != 0 {
				t.Fatal("cells overlapped under a live sink")
			}
			if name == "onsink" {
				if uint64(seen.Load()) != own.Collector.Observations || lost.Load() != 0 {
					t.Fatalf("OnSink saw %d observations (%d lost), collector holds %d",
						seen.Load(), lost.Load(), own.Collector.Observations)
				}
			}
			if !bytes.Equal(export(t, own), mergedOnly) {
				t.Fatal("live-fed sweep exports differ from the merged sweep's")
			}
		})
	}
}

// TestRunCellsResume: cells recorded in the checkpoint are not
// recomputed, contribute no telemetry, and the results equal a
// straight run at any worker count; the finished file resumes with no
// work left.
func TestRunCellsResume(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		path := filepath.Join(t.TempDir(), "toy.ckpt")
		vals, have := make([]int, toyCells), make([]bool, toyCells)
		fresh := 0
		for i := range vals {
			if i%3 == 0 {
				vals[i], have[i] = i*i, true
			} else {
				fresh += i + 2
			}
		}
		if err := saveCells(toyCheckpointer(path), vals, have); err != nil {
			t.Fatal(err)
		}

		own := Sinks{Collector: intnet.NewCollector()}
		var calls atomic.Int64
		got, err := RunCells(workers, toyCells, toyCheckpointer(path), own, toyCell(&calls))
		if err != nil {
			t.Fatal(err)
		}
		checkToyResults(t, got)
		if want := int64(toyCells - toyCells/3); calls.Load() != want {
			t.Fatalf("workers=%d: %d cells computed, want %d", workers, calls.Load(), want)
		}
		if own.Collector.Observations != uint64(fresh) {
			t.Fatalf("workers=%d: %d observations, want %d from freshly computed cells only",
				workers, own.Collector.Observations, fresh)
		}

		calls.Store(0)
		got, err = RunCells(workers, toyCells, toyCheckpointer(path), Sinks{}, toyCell(&calls))
		if err != nil {
			t.Fatal(err)
		}
		checkToyResults(t, got)
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: finished checkpoint recomputed %d cells", workers, calls.Load())
		}
		if tmps, _ := filepath.Glob(path + ".tmp*"); len(tmps) != 0 {
			t.Fatalf("temp files left behind: %v", tmps)
		}
	}
}

func TestRunCellsRejectsForeignCheckpoints(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	var calls atomic.Int64
	if _, err := RunCells(2, toyCells, toyCheckpointer(good), Sinks{}, toyCell(&calls)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.ckpt")
	if err := os.WriteFile(truncated, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	otherKind := toyCheckpointer(good)
	otherKind.Kind = "other"
	noCodec := Checkpointer[int]{Path: good, Kind: "toy"}

	cases := []struct {
		name string
		n    int
		ck   Checkpointer[int]
		want string
	}{
		{"kind", toyCells, otherKind, `is a "sweep/toy" checkpoint, want "sweep/other"`},
		{"cell-count", toyCells + 1, toyCheckpointer(good), "records a 12-cell sweep, this run has 13"},
		{"truncated", toyCells, toyCheckpointer(truncated), "corrupt file"},
		{"unwritable", toyCells, toyCheckpointer(filepath.Join(dir, "missing", "x.ckpt")), "no such file or directory"},
		{"no-codec", toyCells, noCodec, "needs Encode and Decode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RunCells(2, c.n, c.ck, Sinks{}, toyCell(&calls))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to contain %q", err, c.want)
			}
			if c.name == "truncated" && !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	if after, _ := os.ReadFile(good); !bytes.Equal(after, raw) {
		t.Fatal("a rejected resume rewrote the checkpoint")
	}
}
