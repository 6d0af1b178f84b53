package sim

import (
	"sort"
	"testing"
)

// refEvent is the reference model's view of one scheduled callback: just
// the ordering key and an identity. The model "fires" by sorting pending
// events by (at, seq) — the specification the arena-backed radix queue,
// lazy reap and slot recycling must all be indistinguishable from.
type refEvent struct {
	at  Time
	seq int
	id  int
}

type refModel struct {
	pending []refEvent
	seq     int
}

func (m *refModel) schedule(at Time, id int) {
	m.pending = append(m.pending, refEvent{at: at, seq: m.seq, id: id})
	m.seq++
}

// cancel removes event id if still pending, reporting whether it did.
func (m *refModel) cancel(id int) (refEvent, bool) {
	for i, ev := range m.pending {
		if ev.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return ev, true
		}
	}
	return refEvent{}, false
}

// before is the firing order.
func (a refEvent) before(b refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// fireOrder returns the ids of all pending events in firing order.
func (m *refModel) fireOrder() []int {
	sorted := append([]refEvent(nil), m.pending...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].at != sorted[j].at {
			return sorted[i].at < sorted[j].at
		}
		return sorted[i].seq < sorted[j].seq
	})
	ids := make([]int, len(sorted))
	for i, ev := range sorted {
		ids[i] = ev.id
	}
	return ids
}

// minIndex returns the index of the event that must fire next.
func (m *refModel) minIndex() int {
	min := 0
	for i := 1; i < len(m.pending); i++ {
		if m.pending[i].before(m.pending[min]) {
			min = i
		}
	}
	return min
}

// peekMin returns the id and instant of the event that must fire next.
func (m *refModel) peekMin() (id int, at Time, ok bool) {
	if len(m.pending) == 0 {
		return 0, 0, false
	}
	ev := m.pending[m.minIndex()]
	return ev.id, ev.at, true
}

// popMin removes and returns the id that must fire next.
func (m *refModel) popMin() (int, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	min := m.minIndex()
	id := m.pending[min].id
	m.pending = append(m.pending[:min], m.pending[min+1:]...)
	return id, true
}

// What a model event does when it fires, mirrored by the engine-side
// callback: nothing, halt the run, or schedule a child (whose id is the
// parent's id + 1, reserved when the parent was scheduled).
const (
	actNone = iota
	actHalt
	actChild
)

type refAction struct {
	kind       int
	childDelay Duration
}

// orderHarness drives one engine and the reference model through the
// same operations and compares, operation by operation, everything the
// engine lets a caller observe: what fired in which order, the clock,
// and how many events are pending. The model fires by repeatedly taking
// the (at, seq) minimum — the specification the radix queue, its lazy
// reap, the staged same-instant batches and the slot recycling must all
// be indistinguishable from.
type orderHarness struct {
	t     testing.TB
	e     *Engine
	model refModel
	now   Time              // model clock
	acts  map[int]refAction // what each scheduled id does when it fires
	// dead models the lazy reap: cancelled events stay queued until one
	// would fire next, its instant fires, or they are compacted away.
	// Stats().Dead and HeapLen feed the sim_heap_* gauges, so when a
	// cancelled event leaves the queue is part of the engine's contract.
	dead []refEvent

	fired      []int // ids in engine firing order
	modelFired []int // ids in model firing order
	handles    []Event
	handleIDs  []int // parallel: the id each handle was issued for
	nextID     int
	ops        int
}

func newOrderHarness(t testing.TB, seed uint64) *orderHarness {
	return &orderHarness{t: t, e: NewEngine(seed), acts: map[int]refAction{}}
}

func (h *orderHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("op %d: "+format, append([]any{h.ops}, args...)...)
}

// schedule queues one event delay after now on both sides.
func (h *orderHarness) schedule(delay Duration, act refAction) {
	id := h.nextID
	h.nextID++
	if act.kind == actChild {
		h.nextID++ // the child's id
	}
	h.acts[id] = act
	at := h.e.Now().Add(delay)
	if at < h.e.Now() || at > 1<<62 {
		at = h.e.Now().Add(delay % 1024) // stay inside Time's range
	}
	h.engineSchedule(at, id)
	h.model.schedule(at, id)
}

// engineSchedule is the engine's half of a schedule; the model's half
// of a child happens when the model fires the parent (modelFire).
func (h *orderHarness) engineSchedule(at Time, id int) {
	ev := h.e.Schedule(at, func() {
		h.fired = append(h.fired, id)
		switch act := h.acts[id]; act.kind {
		case actHalt:
			h.e.Halt()
		case actChild:
			h.engineSchedule(h.e.Now().Add(act.childDelay), id+1)
		}
	})
	h.handles = append(h.handles, ev)
	h.handleIDs = append(h.handleIDs, id)
}

// cancel cancels the i-th handle ever issued, whatever its vintage —
// pending, fired, already cancelled, or stale with its slot recycled —
// so a generation-check bug would surface as the engine cancelling (or
// refusing to cancel) a different event than the model.
func (h *orderHarness) cancel(i int) {
	ev, id := h.handles[i], h.handleIDs[i]
	wasPending := ev.Pending()
	ev.Cancel()
	gone, took := h.model.cancel(id)
	if took {
		h.dead = append(h.dead, gone)
		if n := len(h.dead); n >= reapMinDead && n*2 > n+len(h.model.pending) {
			h.dead = h.dead[:0] // compaction
		}
	}
	if wasPending != took {
		h.fatalf("handle for id %d Pending()=%v but model pending=%v", id, wasPending, took)
	}
	// Cancelled() is the slot's terminal state, not this call's effect:
	// it stays true for a handle cancelled in an earlier op, and false
	// forever for fired or stale handles.
	if took && !ev.Cancelled() {
		h.fatalf("cancel of id %d took effect but Cancelled()=false", id)
	}
}

// reap drops the cancelled events keep rejects.
func (h *orderHarness) reap(keep func(refEvent) bool) {
	kept := h.dead[:0]
	for _, d := range h.dead {
		if keep(d) {
			kept = append(kept, d)
		}
	}
	h.dead = kept
}

// modelFire pops the model's minimum, if it is due by deadline, and
// applies its action. It reports whether the run goes on. Looking for
// the minimum reaps the cancelled events ordered before it; a run (as
// opposed to a Step) takes the minimum's whole instant off the queue,
// cancelled members included.
func (h *orderHarness) modelFire(deadline Time, run bool) bool {
	id, at, ok := h.model.peekMin()
	if !ok {
		h.dead = h.dead[:0]
		return false
	}
	first := h.model.pending[h.model.minIndex()]
	h.reap(func(d refEvent) bool { return !d.before(first) })
	if at > deadline {
		return false
	}
	if run {
		h.reap(func(d refEvent) bool { return d.at != at })
	}
	h.model.popMin()
	h.now = at
	h.modelFired = append(h.modelFired, id)
	switch act := h.acts[id]; act.kind {
	case actHalt:
		return false
	case actChild:
		h.model.schedule(at.Add(act.childDelay), id+1)
	}
	return true
}

func (h *orderHarness) step() {
	stepped := h.e.Step()
	_, _, ok := h.model.peekMin()
	if stepped != ok {
		h.fatalf("Step()=%v but model had %d events", stepped, len(h.model.pending))
	}
	h.modelFire(maxTime, false)
}

// runUntil runs both sides to now+d. A halting event stops the run at
// its own instant with the rest of that instant still queued.
func (h *orderHarness) runUntil(d Duration) {
	deadline := h.e.Now().Add(d)
	h.e.RunUntil(deadline)
	before := len(h.modelFired)
	for h.modelFire(deadline, true) {
	}
	halted := len(h.modelFired) > before && h.acts[h.modelFired[len(h.modelFired)-1]].kind == actHalt
	if !halted {
		h.now = deadline
	}
	if h.e.Halted() != halted {
		h.fatalf("RunUntil(%v): Halted()=%v, model halted=%v", deadline, h.e.Halted(), halted)
	}
}

// drain runs both sides until nothing is pending.
func (h *orderHarness) drain() {
	for len(h.model.pending) > 0 {
		h.e.Run() // returns early at every halting event
		for h.modelFire(maxTime, true) {
		}
		h.check()
	}
}

// cancelEarliest cancels the event that would fire next, lets the
// engine look at its queue without firing anything (which reaps the
// cancelled event), and then schedules into the gap the cancellation
// opened: between now and the cancelled instant. That event must still
// fire before everything else.
func (h *orderHarness) cancelEarliest(frac int) {
	id, at, ok := h.model.peekMin()
	if !ok {
		return
	}
	for i := len(h.handleIDs) - 1; i >= 0; i-- {
		if h.handleIDs[i] == id {
			h.cancel(i)
			break
		}
	}
	h.runUntil(0)
	if gap := at.Sub(h.e.Now()); gap > 0 {
		h.schedule(gap/8*Duration(frac%8), refAction{})
	}
}

// check compares the two sides after an operation.
func (h *orderHarness) check() {
	h.t.Helper()
	if len(h.fired) != len(h.modelFired) {
		h.fatalf("engine fired %d events, model %d", len(h.fired), len(h.modelFired))
	}
	for i := range h.fired {
		if h.fired[i] != h.modelFired[i] {
			h.fatalf("firing order diverges at %d: engine id %d, model id %d", i, h.fired[i], h.modelFired[i])
		}
	}
	h.fired, h.modelFired = h.fired[:0], h.modelFired[:0]
	if h.e.Pending() != len(h.model.pending) {
		h.fatalf("Pending()=%d, model has %d", h.e.Pending(), len(h.model.pending))
	}
	if h.e.Now() != h.now {
		h.fatalf("Now()=%v, model clock %v", h.e.Now(), h.now)
	}
	if st := h.e.Stats(); st.Dead != len(h.dead) || st.HeapLen != st.Live+st.Dead || st.HeapHighWater < st.HeapLen {
		h.fatalf("queue accounting: %+v, model has %d cancelled events queued", st, len(h.dead))
	}
	h.ops++
}

// TestArenaMatchesReferenceModel drives the engine with a random mix of
// schedule / cancel / reschedule / step / bounded-run operations and
// checks, operation by operation, that it is observationally equivalent
// to the naive reference model. Cancels deliberately target handles of
// every vintage. Bounded runs stop at deadlines that peek at the next
// event without firing it, events halt the run from the middle of a
// same-instant batch, and the earliest event is cancelled and then
// undercut — the cases where a monotone queue's cursor could get ahead
// of the clock.
func TestArenaMatchesReferenceModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99, 0xdecaf} {
		h := newOrderHarness(t, seed)
		rng := NewRNG(seed ^ 0xfeed)
		schedule := func() {
			// Coarse timestamps force same-instant ties so the seq
			// tie-breaker is exercised constantly; occasional zero delay
			// schedules at the current instant mid-run. A few events go
			// far out, so every level of the queue holds something.
			delay := Duration(rng.Intn(16))
			if rng.Intn(8) == 0 {
				delay <<= uint(rng.Intn(40))
			}
			act := refAction{}
			switch rng.Intn(10) {
			case 0:
				act.kind = actHalt
			case 1:
				act = refAction{kind: actChild, childDelay: Duration(rng.Intn(3))}
			}
			h.schedule(delay, act)
		}

		const ops = 4000
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.45 || len(h.handles) == 0:
				schedule()
			case r < 0.70: // cancel a handle of random vintage
				h.cancel(rng.Intn(len(h.handles)))
			case r < 0.78: // reschedule: cancel + schedule later
				h.cancel(rng.Intn(len(h.handles)))
				schedule()
			case r < 0.86:
				h.step()
			case r < 0.94: // often short of the next event: a peek, no pop
				h.runUntil(Duration(rng.Intn(6)))
			default:
				h.cancelEarliest(rng.Intn(8))
			}
			h.check()
		}
		h.drain()
		if h.e.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, h.e.Pending())
		}
	}
}

// TestHaltMidBatchRequeuesInSeqOrder pins the one path that puts slots
// back on the queue: the unfired members of a halted same-instant batch
// return ahead of what the batch itself scheduled for that instant.
func TestHaltMidBatchRequeuesInSeqOrder(t *testing.T) {
	h := newOrderHarness(t, 1)
	h.schedule(5, refAction{kind: actChild}) // its child lands in the same instant
	h.schedule(5, refAction{kind: actHalt})
	h.schedule(5, refAction{})
	h.schedule(5, refAction{kind: actChild, childDelay: 3})
	h.schedule(9, refAction{})
	h.runUntil(20) // stops at the halt, two batch members unfired
	h.check()
	if h.e.Now() != 5 || h.e.Pending() != 4 {
		t.Fatalf("after halt: now=%v pending=%d, want 5 and 4", h.e.Now(), h.e.Pending())
	}
	h.schedule(0, refAction{}) // same instant, after everything already there
	h.schedule(2, refAction{}) // before the parked later events
	h.drain()
}

// FuzzEngineOrder decodes an operation stream from the fuzzer's bytes
// (two per operation: opcode, argument) and checks the engine against
// the sort-by-(at, seq) model after every one. The committed corpus in
// testdata/fuzz holds the shapes that matter to a monotone queue:
// cancel-the-earliest-then-schedule-earlier, halts in mid-batch,
// deadlines that peek without firing, and timestamps on every level.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 8, 3, 6, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOrderHarness(t, 1)
		for i := 0; i+1 < len(data) && i < 2000; i += 2 {
			op, arg := data[i], int(data[i+1])
			switch op % 12 {
			case 0, 1:
				h.schedule(Duration(arg%16), refAction{})
			case 2: // every queue level up to 2^62
				h.schedule(Duration(arg&3+1)<<uint(arg>>2%61), refAction{})
			case 3:
				h.schedule(Duration(arg%8), refAction{kind: actHalt})
			case 4:
				h.schedule(Duration(arg>>2%8), refAction{kind: actChild, childDelay: Duration(arg % 4)})
			case 5, 6:
				if len(h.handles) > 0 {
					h.cancel(arg % len(h.handles))
				}
			case 7:
				h.step()
			case 8:
				h.runUntil(Duration(arg % 32))
			case 9:
				h.runUntil(Duration(arg) * 1021)
			case 10:
				h.cancelEarliest(arg)
			case 11:
				// A burst of cancels, enough to cross the compaction
				// threshold when the queue is mostly dead.
				for k := 0; k < 70 && k < len(h.handles); k++ {
					h.cancel((arg + k) % len(h.handles))
				}
			}
			h.check()
		}
		h.drain()
	})
}

// TestArenaStaleHandlesAcrossReuse hammers slot recycling: every fired or
// cancelled slot goes back on the free list and its generation bumps on
// reuse, so a retained stale handle must answer all queries negatively
// and its Cancel must never touch the new occupant.
func TestArenaStaleHandlesAcrossReuse(t *testing.T) {
	e := NewEngine(7)
	rng := NewRNG(8)
	var stale []Event

	fired := 0
	for round := 0; round < 200; round++ {
		var live []Event
		for i := 0; i < 20; i++ {
			live = append(live, e.After(Duration(rng.Intn(8)), func() { fired++ }))
		}
		// The new events occupy slots recycled from earlier rounds. Attack
		// them with every handle those slots previously issued: each must
		// see the bumped generation and do nothing.
		for _, h := range stale {
			if h.Pending() {
				t.Fatal("stale handle reports Pending after its event completed")
			}
			h.Cancel()
		}
		if e.Pending() != 20 {
			t.Fatalf("round %d: stale Cancel killed a live event (pending %d, want 20)",
				round, e.Pending())
		}
		// Cancel some for real (their slots recycle next round), fire the rest.
		for i, h := range live {
			if i%3 == 0 {
				h.Cancel()
			}
		}
		e.Run()
		stale = append(stale, live...)
	}
	if want := 200 * 13; fired != want { // 20 scheduled, 7 cancelled per round
		t.Fatalf("fired %d events, want %d", fired, want)
	}
}
