package sim

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, Func(func() { got = append(got, 3) }))
	e.Schedule(10, Func(func() { got = append(got, 1) }))
	e.Schedule(20, Func(func() { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, Func(func() { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, Func(func() {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, Func(func() {}))
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, Func(func() {}))
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, Func(func() { fired = true }))
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, Func(func() { fired = append(fired, at) }))
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events after Run, want 4", len(fired))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestTickerPeriodicAndStop(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	var tk *Ticker
	tk = e.Every(100, 50, Func(func() {
		at = append(at, e.Now())
		if len(at) == 4 {
			tk.Stop()
		}
	}))
	e.Run()
	want := []Time{100, 150, 200, 250}
	if len(at) != len(want) {
		t.Fatalf("ticks = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", at, want)
		}
	}
}

func TestEveryNonPositivePeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	e.Every(0, 0, Func(func() {}))
}

func TestNestedSchedulingDuringRun(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			e.After(1, Func(grow))
		}
	}
	e.Schedule(0, Func(grow))
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now = %v, want 99", e.Now())
	}
}

func TestRNGDeterministicByName(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.RNG("x").Uint64() != b.RNG("x").Uint64() {
			t.Fatal("same seed+name diverged")
		}
	}
	if a.RNG("x").Uint64() == a.RNG("y").Uint64() {
		t.Fatal("different names produced identical draw (suspicious)")
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	// Drawing from stream "a" must not perturb stream "b".
	e1 := NewEngine(7)
	e2 := NewEngine(7)
	e1.RNG("a").Uint64()
	e1.RNG("a").Uint64()
	if e1.RNG("b").Uint64() != e2.RNG("b").Uint64() {
		t.Fatal("stream b perturbed by draws on stream a")
	}
}

func TestRNGFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(3)
	f := func(skip uint8) bool {
		for i := uint8(0); i < skip; i++ {
			r.Uint64()
		}
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if mean < 9.95 || mean > 10.05 {
		t.Fatalf("mean = %v, want ≈10", mean)
	}
	if variance < 3.8 || variance > 4.2 {
		t.Fatalf("variance = %v, want ≈4", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3)
	}
	if m := sum / n; m < 2.9 || m > 3.1 {
		t.Fatalf("exp mean = %v, want ≈3", m)
	}
}

func TestRNGParetoMinimum(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(5, 1.5); v < 5 {
			t.Fatalf("pareto draw %v below xm", v)
		}
	}
}

func TestRNGNormDurationClamped(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		if d := r.NormDuration(100, 500, 10); d < 10 {
			t.Fatalf("NormDuration %v below clamp", d)
		}
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{Time(1500 * Nanosecond), "1.500µs"},
		{Time(2500 * Microsecond), "2.500ms"},
		{Time(3 * Second), "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1000)
	b := a.Add(500 * Nanosecond)
	if b != 1500 {
		t.Fatalf("Add = %v", b)
	}
	if d := b.Sub(a); d != 500 {
		t.Fatalf("Sub = %v", d)
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
}

func TestEngineEventsFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 25; i++ {
		e.Schedule(Time(i), Func(func() {}))
	}
	e.Run()
	if e.EventsFired() != 25 {
		t.Fatalf("EventsFired = %d, want 25", e.EventsFired())
	}
}

func TestRunUntilSkipsCancelledWithoutOverrunningDeadline(t *testing.T) {
	// Regression: a cancelled event before the deadline must not cause
	// Step to execute a live event beyond the deadline.
	e := NewEngine(1)
	ev := e.Schedule(10, Func(func() {}))
	ev.Cancel()
	fired := false
	e.Schedule(100, Func(func() { fired = true }))
	e.RunUntil(50)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine(1)
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(Time(10+i), Func(func() {}))
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending after 2 cancels = %d, want 3 (cancelled events must not count)", e.Pending())
	}
	// Double-cancel must not decrement twice.
	evs[1].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending after double cancel = %d, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	if e.EventsFired() != 3 {
		t.Fatalf("EventsFired = %d, want 3", e.EventsFired())
	}
}

func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	// A handle held past its event's firing must become inert once the
	// slot is recycled by a later Schedule — not cancel the new event.
	e := NewEngine(1)
	stale := e.Schedule(1, Func(func() {}))
	e.Run() // fires; slot returns to the free list
	fired := false
	fresh := e.Schedule(2, Func(func() { fired = true }))
	stale.Cancel()
	if fresh.Cancelled() {
		t.Fatal("stale Cancel hit the recycled slot's new event")
	}
	if stale.Cancelled() || stale.Pending() {
		t.Fatal("stale handle reports live state")
	}
	if stale.At() != 0 {
		t.Fatalf("stale At = %v, want 0", stale.At())
	}
	e.Run()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

func TestEventZeroValueIsInert(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
	if ev.Cancelled() || ev.Pending() || ev.At() != 0 {
		t.Fatal("zero Event reports live state")
	}
}

func TestHandleReadableAfterFiringUntilReuse(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(7, Func(func() {}))
	e.Run()
	// Slot freed but not yet reused: the handle still answers queries.
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
	if ev.Cancelled() {
		t.Fatal("fired event reports cancelled")
	}
	if ev.At() != 7 {
		t.Fatalf("At after fire = %v, want 7", ev.At())
	}
}

func TestReapCompactsCancelledMajority(t *testing.T) {
	e := NewEngine(1)
	evs := make([]Event, 400)
	for i := range evs {
		evs[i] = e.Schedule(Time(1000+i), Func(func() {}))
	}
	for _, ev := range evs {
		ev.Cancel()
	}
	// All cancelled: reap fires whenever dead events both exceed the
	// minimum and outnumber live ones, so the residue left lazily in the
	// heap stays below the threshold instead of holding all 400.
	if n := e.Stats().HeapLen; n >= reapMinDead {
		t.Fatalf("heap len = %d after cancelling all, want < %d (reap)", n, reapMinDead)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	// Ordering still intact afterwards.
	var got []Time
	e.Schedule(2000, Func(func() { got = append(got, e.Now()) }))
	e.Schedule(1500, Func(func() { got = append(got, e.Now()) }))
	e.Run()
	if len(got) != 2 || got[0] != 1500 || got[1] != 2000 {
		t.Fatalf("post-reap order = %v", got)
	}
}

func TestReapPreservesSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var cancels []Event
	// Interleave 100 keepers and 100 victims at the same instant, then
	// cancel every victim to force a reap mid-heap.
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(50, Func(func() { got = append(got, i) }))
		cancels = append(cancels, e.Schedule(50, Func(func() { t.Error("cancelled event fired") })))
	}
	for _, ev := range cancels {
		ev.Cancel()
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d keepers, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant FIFO broken after reap: got[%d] = %d", i, v)
		}
	}
}

func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	// Warm the arena and the heap slice.
	for i := 0; i < 10; i++ {
		e.Schedule(e.Now()+1, Func(func() {}))
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, Func(func() {}))
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule+Step allocates %v per op in steady state, want 0", avg)
	}
}

// TestSlotSize holds an event slot, handler included, at 48 bytes:
// Fig. 4 regenerated about 4 % slower with the same code on 64-byte
// slots, which walk the queue's lists over more cache lines.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 48 {
		t.Fatalf("slot is %d B, at most 48", n)
	}
}

// counter is a Handler that counts its firings.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestScheduleCallAllocFree: an event whose handler is a pointer
// allocates nothing, scheduled by Schedule or After or ticked by Every,
// and fires that handler.
func TestScheduleCallAllocFree(t *testing.T) {
	for _, row := range []struct {
		name  string
		setup func(e *Engine, c *counter)
		op    func(e *Engine, c *counter)
	}{
		{"Schedule", nil, func(e *Engine, c *counter) { e.Schedule(e.Now()+1, c); e.Run() }},
		{"After", nil, func(e *Engine, c *counter) { e.After(2, c); e.Run() }},
		{"Every", func(e *Engine, c *counter) { e.Every(0, 1, c) }, func(e *Engine, _ *counter) { e.Step() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			e, c := NewEngine(1), &counter{}
			if row.setup != nil {
				row.setup(e, c)
			}
			row.op(e, c) // warm the arena
			if avg := testing.AllocsPerRun(1000, func() { row.op(e, c) }); avg != 0 {
				t.Fatalf("%s allocates %v per op in steady state, want 0", row.name, avg)
			}
			if c.n != 1+1001 {
				t.Fatalf("handler ran %d times, want %d", c.n, 1+1001)
			}
		})
	}
}

func TestTickerReusesSlotAcrossTicks(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.Every(0, 1, Func(func() { n++ }))
	e.Step() // first tick warms the slot
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("Ticker tick allocates %v per op, want 0", avg)
	}
	tk.Stop()
	if n < 1000 {
		t.Fatalf("ticks = %d", n)
	}
}

func TestHeapOrderRandomized(t *testing.T) {
	// Push a pseudo-random schedule through the 4-ary heap and assert
	// strict (time, seq) pop order against a reference sort.
	e := NewEngine(99)
	r := NewRNG(1234)
	const n = 5000
	type rec struct {
		at  Time
		ord int
	}
	var fired []rec
	for i := 0; i < n; i++ {
		i := i
		at := Time(r.Intn(700)) // heavy same-instant collisions
		e.Schedule(at, Func(func() { fired = append(fired, rec{at: e.Now(), ord: i}) }))
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	seen := make(map[int]int, n) // schedule order -> fire position
	for pos, f := range fired {
		seen[f.ord] = pos
	}
	for i := 1; i < n; i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("time went backwards at %d: %v after %v", i, fired[i].at, fired[i-1].at)
		}
		if fired[i].at == fired[i-1].at && fired[i].ord < fired[i-1].ord {
			t.Fatalf("same-instant FIFO violated at %d", i)
		}
	}
	_ = seen
}
