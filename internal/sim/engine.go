package sim

import "fmt"

// slot is one arena cell of the engine's event pool. Slots are allocated
// in fixed-size chunks so *slot pointers stay stable for the lifetime of
// the engine, and recycled through a LIFO free list: the slot released
// by the event currently firing is the first one a reschedule from
// inside its callback gets back — which is how Tickers reuse one slot
// for their entire life.
//
// A slot holds what it runs as one Handler, two words: the receiver's
// Fire method (ScheduleCall), or a plain func() (Schedule). A frame's
// hop then needs no closure over its receiver, only the receiver, and
// the slot stays at 48 bytes: its engine is in the Event handle, not
// in the slot, since only Cancel needs it.
type slot struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	h     Handler
	gen   uint32 // bumped on reuse; invalidates stale Event handles
	state uint8
	next  *slot // the one list the slot is on: queue bucket, staged batch or free list
}

// A Handler is what an event runs: the engine calls Fire when the
// event fires. A pointer to a component (or to a type defined on it,
// one per kind of event) is a Handler that allocates nothing to
// schedule.
type Handler interface{ Fire() }

// funcHandler is a Schedule callback as a Handler. fire calls it
// directly, never through Fire.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// slot states. The zero value is idle (never scheduled). Staged is a
// transient batch state: the slot has been taken off the queue as part
// of a same-instant batch but its callback has not yet run, so it can
// still be cancelled by an earlier member of the same batch.
const (
	stateIdle uint8 = iota
	statePending
	stateFired
	stateCancelled
	stateStaged
)

// Event is a handle to a scheduled callback. The zero value is inert:
// all methods are no-ops. Handles are generation-checked, so holding one
// past the event's firing is safe — Cancel and Cancelled on a handle
// whose slot has been recycled by a later Schedule do nothing and report
// false instead of acting on the unrelated new event.
type Event struct {
	s   *slot
	eng *Engine
	gen uint32
}

// At returns the virtual time the event is (or was) scheduled for, or 0
// when the handle is zero or stale.
func (h Event) At() Time {
	if h.s == nil || h.s.gen != h.gen {
		return 0
	}
	return h.s.at
}

// Cancel prevents a pending event from firing. Cancelling an already
// fired, already cancelled, or stale event is a no-op. A cancelled
// slot still in the queue is reaped lazily; one staged in the current
// same-instant batch is released when the batch reaches it.
func (h Event) Cancel() {
	s := h.s
	if s == nil || s.gen != h.gen {
		return
	}
	switch s.state {
	case statePending:
		s.state = stateCancelled
		s.h = nil
		e := h.eng
		e.live--
		e.dead++
		e.maybeReap()
	case stateStaged:
		// Not in the queue anymore: no dead++ and no reap — the batch
		// loop skips and releases it.
		s.state = stateCancelled
		s.h = nil
		h.eng.live--
	}
}

// Cancelled reports whether Cancel took effect on this event (false for
// zero or stale handles).
func (h Event) Cancelled() bool {
	return h.s != nil && h.s.gen == h.gen && h.s.state == stateCancelled
}

// Pending reports whether the event is still queued and live (including
// staged in the currently firing batch: it has not fired yet and Cancel
// still works).
func (h Event) Pending() bool {
	return h.s != nil && h.s.gen == h.gen &&
		(h.s.state == statePending || h.s.state == stateStaged)
}

// arenaChunk is the number of event slots allocated at once. Steady
// state, an engine allocates ceil(maxOutstanding/arenaChunk) chunks and
// then never again.
const arenaChunk = 512

// reapMinDead gates queue compaction: cancelled events are swept out
// eagerly only once they are both numerous and the majority of the
// queue, otherwise they drain lazily at pop time.
const reapMinDead = 64

// maxTime is the deadline of an unbounded run.
const maxTime = Time(1<<63 - 1)

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic precisely because
// all state transitions happen in one goroutine in timestamp order.
// Independent engines (one per scenario cell) may run on separate
// goroutines — see internal/sweep.
type Engine struct {
	now    Time
	seq    uint64
	seed   uint64
	rngs   map[string]*RNG
	fired  uint64
	live   int // pending (non-cancelled) events
	dead   int // cancelled events still queued, awaiting lazy reap
	chunks [][]slot
	free   *slot

	// The event queue (queue.go), popped in (at, seq) order.
	ref     Time                           // instant the buckets are filed against; <= now
	front   bucket                         // every queued slot of the earliest instant, once found
	frontAt Time                           // that instant, while front is non-empty
	qlen    int                            // queued slots, live and cancelled
	peak    int                            // qlen high-water mark
	words   uint32                         // bit w set while used[w] is non-zero
	used    [(numBuckets + 63) / 64]uint64 // bit i set while q[i] is non-empty
	q       [numBuckets]bucket

	// shard/shards identify the engine's place in a ShardGroup; a solo
	// engine is shard 0 of 1 (shards == 0 means "never sharded", folded
	// as 0 of 1 so solo digests are stable).
	shard  int
	shards int

	// lastFired is the timestamp of the most recently fired event.
	// RunUntil pads now to its deadline, so without this the profiler
	// could not tell how deep into a window a shard actually had work.
	// Observational only: never folded into checkpoint digests.
	lastFired Time
}

// NewEngine returns an engine at time zero whose named RNG streams derive
// from seed. Two engines with the same seed replay identically.
func NewEngine(seed uint64) *Engine {
	return &Engine{seed: seed, rngs: make(map[string]*RNG)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the scenario seed the engine was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of live events currently queued. Cancelled
// events awaiting lazy reap are not counted.
func (e *Engine) Pending() int { return e.live }

// EngineStats is a point-in-time snapshot of the engine's internals,
// exposed for the telemetry registry and for capacity debugging.
type EngineStats struct {
	Now           Time
	EventsFired   uint64
	Live          int // pending events
	Dead          int // cancelled events awaiting lazy reap
	HeapLen       int // queued events, Live (less any staged batch) + Dead
	HeapHighWater int // the deepest HeapLen has been
	ArenaChunks   int
}

// Stats returns a snapshot of the engine's internals.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:           e.now,
		EventsFired:   e.fired,
		Live:          e.live,
		Dead:          e.dead,
		HeapLen:       e.qlen,
		HeapHighWater: e.peak,
		ArenaChunks:   len(e.chunks),
	}
}

// alloc takes a slot from the free list (growing the arena by one chunk
// when empty) and initializes it as pending.
func (e *Engine) alloc(at Time, h Handler) *slot {
	s := e.free
	if s == nil {
		chunk := make([]slot, arenaChunk)
		e.chunks = append(e.chunks, chunk)
		for i := range chunk {
			chunk[i].next = e.free
			e.free = &chunk[i]
		}
		s = e.free
	}
	e.free = s.next
	s.next = nil
	s.gen++
	s.at = at
	s.seq = e.seq
	s.h = h
	s.state = statePending
	e.seq++
	return s
}

// release returns a slot to the free list. The slot keeps its gen and
// terminal state until reused, so handles stay readable meanwhile; its
// handler is already cleared, so a free slot keeps nothing reachable.
func (e *Engine) release(s *slot) {
	s.next = e.free
	e.free = s
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it would silently violate causality.
func (e *Engine) Schedule(at Time, fn func()) Event { return e.schedule(at, funcHandler(fn)) }

// ScheduleCall runs h.Fire() at absolute virtual time at, like
// Schedule. With h a pointer the event needs no closure: scheduling
// allocates nothing, and firing reaches the receiver through h alone.
func (e *Engine) ScheduleCall(at Time, h Handler) Event { return e.schedule(at, h) }

func (e *Engine) schedule(at Time, h Handler) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	s := e.alloc(at, h)
	e.enqueue(s)
	e.qlen++
	if e.qlen > e.peak {
		e.peak = e.qlen
	}
	e.live++
	return Event{s: s, eng: e, gen: s.gen}
}

// After runs fn d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now.Add(d), funcHandler(fn))
}

// AfterCall runs h.Fire() d after the current time. Negative d panics.
func (e *Engine) AfterCall(d Duration, h Handler) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now.Add(d), h)
}

// Every runs fn at start and then every period until the returned Ticker
// is stopped. The first invocation is at start (absolute time).
func (e *Engine) Every(start Time, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.ev = e.ScheduleCall(start, (*tickEv)(t))
	return t
}

// ShardCount returns the number of shards in the engine's ShardGroup
// (1 for a solo engine).
func (e *Engine) ShardCount() int {
	if e.shards == 0 {
		return 1
	}
	return e.shards
}

// nextEventAt peeks the earliest live event's timestamp, reaping the
// cancelled events queued before it (the same prologue step uses).
func (e *Engine) nextEventAt() (Time, bool) {
	if !e.settle(e.now) {
		return 0, false
	}
	return e.frontAt, true
}

// Step executes the next pending event, advancing time to it. It returns
// false when the queue is empty. The firing event's slot is released
// before its callback runs, so a reschedule from inside the callback
// (the Ticker pattern) reuses the same slot allocation-free.
func (e *Engine) Step() bool { return e.step(maxTime, false) }

// fire runs one pending slot's callback, releasing the slot first so a
// reschedule from inside the callback reuses the same allocation.
func (e *Engine) fire(s *slot) {
	e.fired++
	e.lastFired = e.now
	e.live--
	h := s.h
	s.h = nil
	s.state = stateFired
	e.release(s)
	if f, ok := h.(funcHandler); ok {
		f()
		return
	}
	h.Fire()
}

// step advances to the earliest live event, if there is one and it is
// not past deadline, and fires it — or, for the run loops (batch),
// every event scheduled for that instant as one batch: the front of
// the queue is that instant's events in seq order, so it is detached
// whole and fired in exactly the order a one-at-a-time loop would use.
// Detached slots are staged — off the queue but still cancellable by
// an earlier member of the batch. Events a batch callback schedules
// for the same instant carry later seqs and start a new front, so they
// correctly fire after the staged batch — the caller's loop picks them
// up as the next batch at the same timestamp.
func (e *Engine) step(deadline Time, batch bool) bool {
	// Settle first so the peek sees the earliest *live* event; firing
	// blind would skip past the deadline on cancelled ones.
	if !e.settle(deadline) || e.frontAt > deadline {
		return false
	}
	at := e.frontAt
	if at < e.now {
		panic("sim: time went backwards")
	}
	e.now = at
	switch {
	case at == e.ref:
	case e.words == 0:
		e.ref = at // nothing is filed against the old one
	default:
		e.advance()
	}
	f := &e.front
	s := f.head
	if !batch || s.next == nil {
		// One event: the common case of an instant, and all Step takes.
		if f.head = s.next; f.head == nil {
			f.tail = nil
		}
		e.qlen--
		e.fire(s)
		return true
	}
	*f = bucket{}
	var staged bucket
	for s != nil {
		next := s.next
		if s.state == statePending {
			e.qlen--
			s.state = stateStaged
			staged.push(s)
		} else {
			e.dropDead(s)
		}
		s = next
	}
	for s := staged.head; s != nil; {
		next := s.next
		if s.state == stateStaged {
			e.fire(s)
		} else {
			// Cancelled by an earlier member of this batch.
			e.release(s)
		}
		s = next
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.step(maxTime, true) {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.step(deadline, true) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for a span d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Ticker repeats a callback with a fixed period until stopped. Its
// rescheduling is allocation-free: each tick is an event whose handler
// is the ticker itself, and the event slot released when a tick fires
// is the same one the next tick is scheduled into.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	ev      Event
	stopped bool
}

// tickEv is a Ticker as the Handler of its ticks.
type tickEv Ticker

func (te *tickEv) Fire() {
	t := (*Ticker)(te)
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped { // fn may stop the ticker
		return
	}
	t.ev = t.engine.AfterCall(t.period, te)
}

// Stop cancels future ticks. Safe to call from within the tick callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
