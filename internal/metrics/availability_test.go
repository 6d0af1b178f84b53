package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAvailabilityAllUp(t *testing.T) {
	a := NewAvailabilityTracker(0)
	rep := a.Close(int64(time.Hour))
	if rep.Availability != 1 {
		t.Fatalf("availability = %v", rep.Availability)
	}
	if !math.IsInf(rep.Nines(), 1) {
		t.Fatalf("nines = %v", rep.Nines())
	}
	if rep.Outages != 0 {
		t.Fatalf("outages = %d", rep.Outages)
	}
}

func TestAvailabilitySingleOutage(t *testing.T) {
	a := NewAvailabilityTracker(0)
	a.Observe(int64(10*time.Second), false)
	a.Observe(int64(20*time.Second), true)
	rep := a.Close(int64(100 * time.Second))
	if rep.Downtime != 10*time.Second {
		t.Fatalf("downtime = %v", rep.Downtime)
	}
	if math.Abs(rep.Availability-0.9) > 1e-12 {
		t.Fatalf("availability = %v", rep.Availability)
	}
	if rep.Outages != 1 || rep.LongestOutage != 10*time.Second {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAvailabilityOpenOutageAtClose(t *testing.T) {
	a := NewAvailabilityTracker(0)
	a.Observe(int64(90*time.Second), false)
	rep := a.Close(int64(100 * time.Second))
	if rep.Downtime != 10*time.Second {
		t.Fatalf("downtime = %v", rep.Downtime)
	}
	if rep.LongestOutage != 10*time.Second {
		t.Fatalf("longest = %v", rep.LongestOutage)
	}
}

func TestAvailabilityRedundantObservationsIgnored(t *testing.T) {
	a := NewAvailabilityTracker(0)
	a.Observe(10, true)
	a.Observe(20, true)
	a.Observe(30, false)
	a.Observe(40, false)
	a.Observe(50, true)
	rep := a.Close(100)
	if rep.Downtime != 20 {
		t.Fatalf("downtime = %v", rep.Downtime)
	}
	if rep.Outages != 1 {
		t.Fatalf("outages = %d", rep.Outages)
	}
}

func TestAvailabilityOutOfOrderPanics(t *testing.T) {
	a := NewAvailabilityTracker(0)
	a.Observe(100, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order observation did not panic")
		}
	}()
	a.Observe(50, true)
}

func TestNinesComputation(t *testing.T) {
	rep := AvailabilityReport{Availability: 0.999999}
	if n := rep.Nines(); math.Abs(n-6) > 0.01 {
		t.Fatalf("nines = %v, want 6", n)
	}
	if !rep.MeetsSixNines() {
		t.Fatal("six nines not recognized")
	}
	rep = AvailabilityReport{Availability: 0.999}
	if rep.MeetsSixNines() {
		t.Fatal("three nines passed six-nines check")
	}
}

func TestDowntimePerYearAtSixNines(t *testing.T) {
	rep := AvailabilityReport{Availability: 0.999999}
	d := rep.DowntimePerYear()
	// 31.5 s per year, per §2.2.
	if d < 31*time.Second || d > 32*time.Second {
		t.Fatalf("downtime/year = %v, want ≈31.5s", d)
	}
}

func TestAvailabilityReportString(t *testing.T) {
	a := NewAvailabilityTracker(0)
	a.Observe(int64(time.Second), false)
	a.Observe(int64(2*time.Second), true)
	rep := a.Close(int64(10 * time.Second))
	s := rep.String()
	if !strings.Contains(s, "outages=1") {
		t.Fatalf("string = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("bb", "22")
	s := tb.String()
	if !strings.Contains(s, "# demo") || !strings.Contains(s, "name") {
		t.Fatalf("table = %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1", "2", "3")
	if strings.Contains(tb.String(), "2") {
		t.Fatal("extra cell leaked into render")
	}
}

func TestCDFTableRendersAllSeries(t *testing.T) {
	m := map[string]*Series{
		"fast": seriesOf(1, 2, 3),
		"slow": seriesOf(10, 20, 30),
	}
	s := CDFTable("delays", "µs", m, []string{"fast", "slow", "missing"})
	if !strings.Contains(s, "fast") || !strings.Contains(s, "slow") {
		t.Fatalf("cdf table = %q", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatal("missing series not rendered as -")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline not empty")
	}
	s := Sparkline([]int{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
	if Sparkline([]int{0, 0}) != "  " {
		t.Fatalf("all-zero sparkline = %q", Sparkline([]int{0, 0}))
	}
}
