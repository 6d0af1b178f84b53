package sim

import (
	"slices"
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
// callback: nothing, schedule a child (whose id is the parent's id + 1,
// reserved when the parent was scheduled), or cancel event target,
// whatever its vintage by then: not yet scheduled, pending (perhaps
// staged in the same batch), fired, or cancelled already.
const (
	actNone = iota
	actChild
	actCancel
)

type refAction struct {
	kind       int
	childDelay Duration
	target     int
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
	// engineTook and modelTook record, per cancel issued from inside a
	// callback, whether it found its event pending.
	engineTook, modelTook []bool
	// batch holds the ids of the same-instant batch a run is firing that
	// have not fired yet: the engine has taken them off its queue
	// (staged), so cancelling one leaves nothing dead behind.
	batch     []int
	handles   []Event
	handleIDs []int       // parallel: the id each handle was issued for
	handleOf  map[int]int // id -> its handle's index
	// modelHas holds the ids the model has scheduled. It runs behind the
	// engine (which schedules children as it fires), but at each firing
	// both sides have scheduled the same ids.
	modelHas map[int]bool
	nextID   int
	ops      int
}

func newOrderHarness(t testing.TB, seed uint64) *orderHarness {
	return &orderHarness{t: t, e: NewEngine(seed), acts: map[int]refAction{},
		handleOf: map[int]int{}, modelHas: map[int]bool{}}
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
	h.modelSchedule(at, id)
}

func (h *orderHarness) modelSchedule(at Time, id int) {
	h.model.schedule(at, id)
	h.modelHas[id] = true
}

// engineSchedule is the engine's half of a schedule; the model's half
// of a child happens when the model fires the parent (modelFire). Odd
// ids go through ScheduleCall with a harnessCall as the handler, even
// ids through Schedule with a closure, so the two kinds of slot
// interleave in every list of the queue.
func (h *orderHarness) engineSchedule(at Time, id int) {
	var ev Event
	if id%2 == 1 {
		ev = h.e.ScheduleCall(at, &harnessCall{h, id})
	} else {
		ev = h.e.Schedule(at, func() { h.onFire(id) })
	}
	h.handleOf[id] = len(h.handles)
	h.handles = append(h.handles, ev)
	h.handleIDs = append(h.handleIDs, id)
}

// harnessCall is the handler of a ScheduleCall event of the harness.
type harnessCall struct {
	h  *orderHarness
	id int
}

func (c *harnessCall) Fire() { c.h.onFire(c.id) }

// onFire is the engine-side callback of event id.
func (h *orderHarness) onFire(id int) {
	h.fired = append(h.fired, id)
	switch act := h.acts[id]; act.kind {
	case actChild:
		h.engineSchedule(h.e.Now().Add(act.childDelay), id+1)
	case actCancel:
		took := false
		if i, ok := h.handleOf[act.target]; ok {
			took = h.handles[i].Pending()
			h.handles[i].Cancel()
		}
		h.engineTook = append(h.engineTook, took)
	}
}

// cancel cancels the i-th handle ever issued, whatever its vintage —
// pending, fired, already cancelled, or stale with its slot recycled —
// so a generation-check bug would surface as the engine cancelling (or
// refusing to cancel) a different event than the model.
func (h *orderHarness) cancel(i int) {
	ev, id := h.handles[i], h.handleIDs[i]
	wasPending := ev.Pending()
	ev.Cancel()
	took := h.modelCancel(i)
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

// modelCancel is the model's half of cancelling the i-th handle: a
// pending event leaves the model, and unless the running batch had
// already staged it, it stays queued dead until reaped. It reports
// whether the event was pending.
func (h *orderHarness) modelCancel(i int) bool {
	gone, took := h.model.cancel(h.handleIDs[i])
	if !took {
		return false
	}
	if j := slices.Index(h.batch, gone.id); j >= 0 {
		h.batch = slices.Delete(h.batch, j, j+1)
		return true
	}
	h.dead = append(h.dead, gone)
	// The engine compacts against the events still queued: pending ones
	// less the staged batch, plus the dead.
	if n := len(h.dead); n >= reapMinDead && n*2 > n+len(h.model.pending)-len(h.batch) {
		h.dead = h.dead[:0] // compaction
	}
	return true
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
// applies its action. It reports whether anything fired. Looking for
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
		if len(h.batch) == 0 {
			// A new batch: everything pending at the instant, in order.
			for _, ev := range h.model.pending {
				if ev.at == at {
					h.batch = append(h.batch, ev.id)
				}
			}
		}
		h.batch = slices.DeleteFunc(h.batch, func(b int) bool { return b == id })
	}
	h.model.popMin()
	h.now = at
	h.modelFired = append(h.modelFired, id)
	switch act := h.acts[id]; act.kind {
	case actChild:
		h.modelSchedule(at.Add(act.childDelay), id+1)
	case actCancel:
		took := h.modelHas[act.target] && h.modelCancel(h.handleOf[act.target])
		h.modelTook = append(h.modelTook, took)
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

// runUntil runs both sides to now+d.
func (h *orderHarness) runUntil(d Duration) {
	deadline := h.e.Now().Add(d)
	h.e.RunUntil(deadline)
	for h.modelFire(deadline, true) {
	}
	h.now = deadline
}

// drain runs both sides until nothing is pending.
func (h *orderHarness) drain() {
	for len(h.model.pending) > 0 {
		h.e.Run()
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
	if !slices.Equal(h.engineTook, h.modelTook) {
		h.fatalf("cancels from callbacks found their events pending %v, model %v", h.engineTook, h.modelTook)
	}
	h.engineTook, h.modelTook = h.engineTook[:0], h.modelTook[:0]
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
// event without firing it, and the earliest event is cancelled and then
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
			case 1:
				act = refAction{kind: actChild, childDelay: Duration(rng.Intn(3))}
			case 2: // one of the next few events, or any earlier one
				act = refAction{kind: actCancel, target: h.nextID + 1 + rng.Intn(4)}
				if rng.Intn(2) == 0 {
					act.target = rng.Intn(h.nextID + 1)
				}
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

// FuzzEngineOrder decodes an operation stream from the fuzzer's bytes
// (two per operation: opcode, argument) and checks the engine against
// the sort-by-(at, seq) model after every one. The committed corpus in
// testdata/fuzz holds the shapes that matter to a monotone queue:
// cancel-the-earliest-then-schedule-earlier, deadlines that peek
// without firing, and timestamps on every level.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 8, 3, 6, 20})
	// Events that cancel the next one scheduled into their own batch,
	// a ScheduleCall event and a Schedule one.
	f.Add([]byte{12, 8, 0, 0, 0, 0, 8, 5})
	f.Add([]byte{0, 0, 12, 8, 0, 0, 0, 0, 8, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOrderHarness(t, 1)
		for i := 0; i+1 < len(data) && i < 2000; i += 2 {
			op, arg := data[i], int(data[i+1])
			switch op % 13 {
			case 0, 1:
				h.schedule(Duration(arg%16), refAction{})
			case 2: // every queue level up to 2^62
				h.schedule(Duration(arg&3+1)<<uint(arg>>2%61), refAction{})
			case 3:
				h.schedule(Duration(arg%8), refAction{})
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
			case 12: // an event that cancels an event of any vintage
				h.schedule(Duration(arg%4), refAction{kind: actCancel, target: h.nextID - arg>>2%16 + 3})
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
