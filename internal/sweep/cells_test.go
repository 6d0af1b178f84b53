package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
)

const toyCells = 12

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
		got := RunCells(workers, toyCells, nil, own, toyCell(&calls))
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
		b := export(t, own)
		if flow := fmt.Sprintf(`{"type":"flow","sink":"srv","flow":1,"received":%d}`+"\n", frames); !bytes.Contains(b, []byte(flow)) {
			t.Fatalf("workers=%d: export lacks %s", workers, flow)
		}
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
		RunCells(1, toyCells, nil, own, toyCell(&calls))
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
			RunCells(8, toyCells, nil, own, func(i int, s Sinks) int {
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
// weight, equal weights by rising index.
func heaviestFirst(w []float64) []int {
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
	return order
}

// startOrder runs a weighted sweep whose cells block until the test
// lets them go, one at a time: with every worker parked inside a cell,
// releasing one frees exactly one worker, so the cell started next is
// the pool's next pick and the whole start order is deterministic.
func startOrder(workers int, w []float64, own Sinks) (started []int, got []int) {
	begun := make(chan int, toyCells)
	release := make(chan struct{})
	var calls atomic.Int64
	body := toyCell(&calls)
	done := make(chan struct{})
	go func() {
		got = RunCells(workers, toyCells, w, own, func(i int, s Sinks) int {
			begun <- i
			<-release
			return body(i, s)
		})
		close(done)
	}()
	for len(started) < workers {
		started = append(started, <-begun)
	}
	for len(started) < toyCells {
		release <- struct{}{}
		started = append(started, <-begun)
	}
	for i := 0; i < workers; i++ {
		release <- struct{}{}
	}
	<-done
	return started, got
}

// TestRunCellsWeightedDispatch: weights change when a cell starts and
// nothing else. Heavier cells start first at 2 and 8 workers; results
// and merged telemetry are byte-equal to the serial and to the
// unweighted sweep; a live sink still forces input-order serial, and
// weights that do not match the cells are a bug, which panics.
func TestRunCellsWeightedDispatch(t *testing.T) {
	w := toyWeights()

	// The reference: serial, unweighted — the only order there was.
	ref := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
	var calls atomic.Int64
	RunCells(1, toyCells, nil, ref, toyCell(&calls))
	wantExport := export(t, ref)

	for _, workers := range []int{2, 8} {
		own := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		started, got := startOrder(workers, w, own)
		checkToyResults(t, got)
		want := heaviestFirst(w)
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

		// Unweighted at the same width: index order, same bytes.
		plain := Sinks{Trace: telemetry.NewTracer(nil), Collector: intnet.NewCollector()}
		started, got = startOrder(workers, nil, plain)
		checkToyResults(t, got)
		for k := workers; k < toyCells; k++ {
			if started[k] != k {
				t.Fatalf("workers=%d: unweighted start order %v, want index order", workers, started)
			}
		}
		if !bytes.Equal(export(t, plain), wantExport) {
			t.Fatalf("workers=%d: unweighted sweep's merged telemetry differs from the serial one", workers)
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
		RunCells(8, toyCells, w, own, func(i int, s Sinks) int {
			order = append(order, i)
			return i * i
		})
		for k, i := range order {
			if i != k {
				t.Fatalf("%s: live sweep ran cells in order %v, want input order", name, order)
			}
		}
	}

	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "3 weights for 12 cells") {
			t.Fatalf("short weights: recovered %v", p)
		}
	}()
	RunCells(2, toyCells, w[:3], Sinks{}, toyCell(&calls))
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
