package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// bench around the call (the program itself is not instrumented).
// Times are nanoseconds since the recorder was created; Parent is the
// index of the enclosing span in the recorder, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// recorder holds a traced run's spans in memory; they are written out
// only when the run ends. It is used from one goroutine: traced runs
// call the layers serially precisely so that parentage is a stack.
// A nil recorder records nothing, so the untraced path pays one nil
// check per call site.
type recorder struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// do times fn as a span named name, nested under whatever span is open.
func (r *recorder) do(name string, fn func()) time.Duration {
	if r == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Workload: r.workload, Rep: r.rep})
	r.open = append(r.open, id)
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	r.spans[id].Start, r.spans[id].End = int64(start), int64(end)
	return end - start
}

// total returns the summed duration of every span named name.
func (r *recorder) total(name string) time.Duration {
	var t int64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return time.Duration(t)
}

// count returns how many spans are named name.
func (r *recorder) count(name string) int {
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// budgetRow is one span name's line in the budget table.
type budgetRow struct {
	Name  string
	Calls int
	Self  time.Duration
}

// budget folds the self times of rep 0's spans by span name, largest
// first. Rep 0 is the traced repeat of exactly the calls the untraced
// run timed; later reps hold a traced run's extra experiments (another
// worker count, a micro-loop) and are left to the span file.
func budget(spans []span) []budgetRow {
	self := selfTimes(spans)
	by := map[string]*budgetRow{}
	var rows []*budgetRow
	for i, s := range spans {
		if s.Rep != 0 {
			continue
		}
		row := by[s.Name]
		if row == nil {
			row = &budgetRow{Name: s.Name}
			by[s.Name] = row
			rows = append(rows, row)
		}
		row.Calls++
		row.Self += time.Duration(self[i])
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	out := make([]budgetRow, len(rows))
	for i, row := range rows {
		out[i] = *row
	}
	return out
}

// tracedWall is the summed self time of rep 0: the traced wall of the
// calls the untraced run timed.
func tracedWall(spans []span) time.Duration {
	var total time.Duration
	for _, row := range budget(spans) {
		total += row.Self
	}
	return total
}

// writeBudget prints the per-workload budget table: every span name's
// self time, their sum, and the residual against the untraced wall, so
// the budget visibly sums (or visibly does not).
func writeBudget(w io.Writer, workload string, spans []span, untracedWall time.Duration) {
	rows := budget(spans)
	var total time.Duration
	for _, row := range rows {
		total += row.Self
	}
	fmt.Fprintf(w, "budget %s (self time of bench-side spans)\n", workload)
	fmt.Fprintf(w, "  %-34s %8s %12s %7s\n", "span", "calls", "self_s", "share")
	for _, row := range rows {
		share := 0.0
		if total > 0 {
			share = float64(row.Self) / float64(total)
		}
		fmt.Fprintf(w, "  %-34s %8d %12.6f %6.1f%%\n", row.Name, row.Calls, row.Self.Seconds(), share*100)
	}
	fmt.Fprintf(w, "  %-34s %8s %12.6f\n", "sum of self times", "", total.Seconds())
	fmt.Fprintf(w, "  %-34s %8s %12.6f\n", "untraced wall (same calls)", "", untracedWall.Seconds())
	fmt.Fprintf(w, "  %-34s %8s %12.6f  (untraced wall - sum)\n", "residual", "", (untracedWall - total).Seconds())
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	if spans == nil {
		spans = []span{}
	}
	return enc.Encode(spans)
}
