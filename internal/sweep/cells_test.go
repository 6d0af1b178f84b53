package sweep

import (
	"bytes"
	"errors"
	"io"
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
		Path: path,
		Kind: "toy",
		Walk: func(c *checkpoint.Codec, v *int) { checkpoint.Int(c, v) },
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
		got, err := RunCells(workers, toyCells, nil, toyCheckpointer(""), own, toyCell(&calls))
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
		if _, err := RunCells(1, toyCells, nil, toyCheckpointer(""), own, toyCell(&calls)); err != nil {
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
			_, err := RunCells(8, toyCells, nil, toyCheckpointer(""), own, func(i int, s Sinks) int {
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
		got, err := RunCells(workers, toyCells, nil, toyCheckpointer(path), own, toyCell(&calls))
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
		got, err = RunCells(workers, toyCells, nil, toyCheckpointer(path), Sinks{}, toyCell(&calls))
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

// toyWeights has ties, so the dispatch order also exercises the
// equal-weights-in-index-order rule.
func toyWeights() []float64 {
	w := make([]float64, toyCells)
	for i := range w {
		w[i] = float64((i * 5) % 7)
	}
	return w
}

// heaviestFirst is the specification of the dispatch order: by falling
// weight, equal weights by rising index, skipping cells already done.
func heaviestFirst(w []float64, done func(i int) bool) []int {
	var order []int
	for len(order) < len(w) {
		best := -1
		for i := range w {
			taken := false
			for _, o := range order {
				taken = taken || o == i
			}
			if !taken && (best < 0 || w[i] > w[best]) {
				best = i
			}
		}
		order = append(order, best)
	}
	kept := order[:0]
	for _, i := range order {
		if !done(i) {
			kept = append(kept, i)
		}
	}
	return kept
}

// startOrder runs a weighted sweep whose cells block until the test
// lets them go, one at a time: with every worker parked inside a cell,
// releasing one frees exactly one worker, so the cell started next is
// the pool's next pick and the whole start order is deterministic.
func startOrder(t *testing.T, workers int, w []float64, ck Checkpointer[int], own Sinks, cells int) (started []int, got []int) {
	t.Helper()
	begun := make(chan int, toyCells)
	release := make(chan struct{})
	var calls atomic.Int64
	body := toyCell(&calls)
	done := make(chan error, 1)
	go func() {
		var err error
		got, err = RunCells(workers, toyCells, w, ck, own, func(i int, s Sinks) int {
			begun <- i
			<-release
			return body(i, s)
		})
		done <- err
	}()
	if workers > cells {
		workers = cells
	}
	for len(started) < workers {
		started = append(started, <-begun)
	}
	for len(started) < cells {
		release <- struct{}{}
		started = append(started, <-begun)
	}
	for i := 0; i < workers; i++ {
		release <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return started, got
}

// TestRunCellsWeightedDispatch: weights change when a cell starts and
// nothing else. Heavier cells start first at 2 and 8 workers, also when
// a resumed sweep has some cells on file already; results, merged
// telemetry and the finished checkpoint file are byte-equal to the
// serial and to the unweighted sweep; a live sink still forces
// input-order serial.
func TestRunCellsWeightedDispatch(t *testing.T) {
	w := toyWeights()
	dir := t.TempDir()

	// The reference: serial, unweighted — the only order there was.
	refPath := filepath.Join(dir, "ref.ckpt")
	ref := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
	var calls atomic.Int64
	if _, err := RunCells(1, toyCells, nil, toyCheckpointer(refPath), ref, toyCell(&calls)); err != nil {
		t.Fatal(err)
	}
	wantExport := export(t, ref)
	wantFile, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		path := filepath.Join(dir, "weighted.ckpt")
		os.Remove(path)
		own := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		started, got := startOrder(t, workers, w, toyCheckpointer(path), own, toyCells)
		checkToyResults(t, got)
		want := heaviestFirst(w, func(int) bool { return false })
		// The first `workers` cells start together, in any order.
		if !sameSet(started[:workers], want[:workers]) {
			t.Fatalf("workers=%d: first cells started %v, want the heaviest %v", workers, started[:workers], want[:workers])
		}
		for k := workers; k < toyCells; k++ {
			if started[k] != want[k] {
				t.Fatalf("workers=%d: start order %v, want %v", workers, started, want)
			}
		}
		if !bytes.Equal(export(t, own), wantExport) {
			t.Fatalf("workers=%d: weighted sweep's merged telemetry differs from the serial unweighted one", workers)
		}
		if file, _ := os.ReadFile(path); !bytes.Equal(file, wantFile) {
			t.Fatalf("workers=%d: weighted sweep's finished checkpoint differs from the serial unweighted one", workers)
		}

		// Unweighted at the same width: index order, same bytes.
		plain := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		started, got = startOrder(t, workers, nil, toyCheckpointer(""), plain, toyCells)
		checkToyResults(t, got)
		for k := workers; k < toyCells; k++ {
			if started[k] != k {
				t.Fatalf("workers=%d: unweighted start order %v, want index order", workers, started)
			}
		}
		if !bytes.Equal(export(t, plain), wantExport) {
			t.Fatalf("workers=%d: unweighted sweep's merged telemetry differs from the serial one", workers)
		}

		// Resumed: every third cell is on file and is not started; the
		// rest still go heaviest first, and the file ends up the same.
		vals, have := make([]int, toyCells), make([]bool, toyCells)
		for i := 0; i < toyCells; i += 3 {
			vals[i], have[i] = i*i, true
		}
		if err := saveCells(toyCheckpointer(path), vals, have); err != nil {
			t.Fatal(err)
		}
		want = heaviestFirst(w, func(i int) bool { return have[i] })
		started, got = startOrder(t, workers, w, toyCheckpointer(path), Sinks{}, len(want))
		checkToyResults(t, got)
		pool := min(workers, len(want))
		if !sameSet(started[:pool], want[:pool]) {
			t.Fatalf("workers=%d resumed: first cells started %v, want %v", workers, started[:pool], want[:pool])
		}
		for k := pool; k < len(want); k++ {
			if started[k] != want[k] {
				t.Fatalf("workers=%d resumed: start order %v, want %v", workers, started, want)
			}
		}
		if file, _ := os.ReadFile(path); !bytes.Equal(file, wantFile) {
			t.Fatalf("workers=%d: resumed weighted sweep's checkpoint differs from the straight one", workers)
		}
	}

	// A live sink runs the cells serially, in input order.
	live := map[string]Sinks{
		"registry": {Metrics: telemetry.NewRegistry()},
		"onsink":   {Collector: intnet.NewCollector()},
	}
	live["onsink"].Collector.OnSink = func(intnet.Observation) {}
	for name, own := range live {
		var order []int // no lock: a live sweep is one goroutine
		if _, err := RunCells(8, toyCells, w, toyCheckpointer(""), own, func(i int, s Sinks) int {
			order = append(order, i)
			return i * i
		}); err != nil {
			t.Fatal(err)
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("%s: live sweep ran cells in order %v, want input order", name, order)
			}
		}
	}

	if _, err := RunCells(2, toyCells, w[:3], toyCheckpointer(""), Sinks{}, toyCell(&calls)); err == nil ||
		!strings.Contains(err.Error(), "3 weights for 12 cells") {
		t.Fatalf("short weights: err = %v", err)
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			found = found || x == y
		}
		if !found {
			return false
		}
	}
	return true
}

func TestRunCellsRejectsForeignCheckpoints(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	var calls atomic.Int64
	if _, err := RunCells(2, toyCells, nil, toyCheckpointer(good), Sinks{}, toyCell(&calls)); err != nil {
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
	// One byte appended inside the cells section, container resealed.
	file, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	file.Sections[0].Data = append(file.Sections[0].Data, 0)
	trailing := filepath.Join(dir, "trailing.ckpt")
	if err := checkpoint.WriteFileAtomic(trailing, func(w io.Writer) error {
		return checkpoint.Write(w, file.Kind, file.Sections)
	}); err != nil {
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
		{"trailing", toyCells, toyCheckpointer(trailing), "corrupt file"},
		{"no-codec", toyCells, noCodec, "needs a Walk"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RunCells(2, c.n, nil, c.ck, Sinks{}, toyCell(&calls))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to contain %q", err, c.want)
			}
			if (c.name == "truncated" || c.name == "trailing") && !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	if after, _ := os.ReadFile(good); !bytes.Equal(after, raw) {
		t.Fatal("a rejected resume rewrote the checkpoint")
	}
}
