package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"steelnet/internal/checkpoint"
)

// ErrZeroLookahead is returned by NewShardGroup when a multi-shard group
// is requested with a non-positive lookahead. Conservative windowed
// synchronization is only sound when every cross-shard interaction takes
// at least the lookahead to propagate: a zero-latency cross-shard link
// would let a message land inside the window that produced it, where the
// receiving shard may already have fired past its timestamp, so the
// topology is refused.
var ErrZeroLookahead = errors.New("sim: cross-shard lookahead must be positive")

// xmsg is one timestamped inter-shard message: call fn(arg, aux) on
// shard dst at absolute time at. Messages accumulate in per-source
// outboxes during a window and are scheduled into destination engines
// at the barrier. fn is the sender's prebuilt handler and arg is
// pointer-shaped, so a send stores three words and allocates nothing.
type xmsg struct {
	at  Time
	dst int
	fn  func(arg any, aux int)
	arg any
	aux int
}

// delivery binds one flushed message to the event that runs it on the
// destination shard: the slot is the event's Handler. Slots are
// recycled through a per-destination free list, so a barrier schedules
// its messages without allocating once every list has grown to its
// shard's peak count of pending cross messages.
//
// Ownership: the slots on shard d's list, and the list head, are touched
// by shard d's worker when a slot fires (inside a window) and by the
// coordinator when it takes slots (at a barrier). The barrier orders the
// two, so no two goroutines ever share a list.
type delivery struct {
	fn   func(arg any, aux int)
	arg  any
	aux  int
	home **delivery // the destination shard's free-list head
	next *delivery
}

// Fire returns the slot to its list, then calls the message's handler
// with its argument and int.
func (d *delivery) Fire() {
	fn, arg, aux := d.fn, d.arg, d.aux
	d.fn, d.arg = nil, nil
	d.next = *d.home
	*d.home = d
	fn(arg, aux)
}

// ShardGroup runs several engines in conservative lockstep. The group
// advances virtual time in windows of at most the lookahead L: within a
// window [T, T+L) every shard executes independently (optionally on
// parallel worker goroutines), and any cross-shard effect produced in
// the window must be timestamped at or after the window's end — which
// every physical process with propagation latency >= L satisfies by
// construction. At the barrier the per-shard outboxes flush into the
// destination engines in fixed shard order (source 0..P-1, append order
// within a source), so the (at, seq) firing order inside every shard is
// a pure function of the scenario, never of the worker schedule.
//
// Determinism contract: the number of shards is part of the scenario
// (derived from the topology partition), and the worker count only sets
// how many OS goroutines execute a window's shards. Every output —
// firing order, RNG draws, digests — is byte-identical for any worker
// count, exactly like internal/sweep's -workers.
type ShardGroup struct {
	seed      uint64
	lookahead Duration
	shards    []*Engine
	outbox    [][]xmsg

	// now is the barrier floor: every shard's clock is here.
	now Time
	// windowEnd is the current window's end; written by the coordinator
	// before workers start, read-only by workers during the window.
	// winOpen marks a window begun but not yet ended at its barrier: a
	// Run(until) whose deadline cuts a window mid-way returns with the
	// window open (outboxes unflushed) and the next Run resumes it.
	// Windows are therefore anchored to event content alone — the
	// window grid, the flush instants and hence every scheduling
	// sequence number are identical whether the caller advances in one
	// Run or many (the checkpoint cut-point invariance the replay
	// design needs).
	windowEnd Time
	winOpen   bool
	// merge is the flush scratch buffer: outboxed messages are merged
	// into canonical (at, source shard, enqueue order) order before
	// scheduling, so same-instant cross-shard deliveries tie-break
	// identically no matter which windows produced them.
	merge []xmsg
	// free[d] is shard d's list of idle delivery slots (see delivery).
	free []*delivery

	windows  uint64
	messages uint64
	skipped  uint64 // windows avoided by idle fast-forward

	// prof is the coordinator profiler; nil (the default) disables it.
	// See shardprof.go. Observational only — never folded into digests.
	prof *shardProf
}

// NewShardGroup builds a group of n engines sharing one scenario seed.
// Named RNG streams derive from (seed, name) only, so a component's
// stream is independent of which shard it lands on. A multi-shard group
// with lookahead <= 0 returns ErrZeroLookahead (wrapped).
func NewShardGroup(seed uint64, n int, lookahead Duration) (*ShardGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: shard group needs at least one shard, got %d", n)
	}
	if n > 1 && lookahead <= 0 {
		return nil, fmt.Errorf("%w (got %v for %d shards): use one shard or give every cross-shard link positive propagation delay", ErrZeroLookahead, lookahead, n)
	}
	g := &ShardGroup{
		seed:      seed,
		lookahead: lookahead,
		shards:    make([]*Engine, n),
		outbox:    make([][]xmsg, n),
		free:      make([]*delivery, n),
	}
	for i := range g.shards {
		e := NewEngine(seed)
		e.shard = i
		e.shards = n
		g.shards[i] = e
	}
	return g, nil
}

// Shards returns the number of shards (the partition size, not the
// worker count).
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's engine. Components in partition i must
// schedule only on this engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the window bound L.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// Now returns the barrier floor: the instant through which every
// shard has executed.
func (g *ShardGroup) Now() Time { return g.now }

// Seed returns the scenario seed shared by every shard engine.
func (g *ShardGroup) Seed() uint64 { return g.seed }

// ShardGroupStats is a point-in-time snapshot of the group's windowed
// execution, for benchmarks and capacity debugging.
type ShardGroupStats struct {
	Shards    int
	Lookahead Duration
	Now       Time
	// Windows counts barrier-to-barrier execution windows; Skipped
	// counts idle spans fast-forwarded without running shards.
	Windows uint64
	Skipped uint64
	// Messages counts cross-shard messages flushed at barriers.
	Messages uint64
}

// Stats returns a snapshot of the group's internals.
func (g *ShardGroup) Stats() ShardGroupStats {
	return ShardGroupStats{
		Shards:    len(g.shards),
		Lookahead: g.lookahead,
		Now:       g.now,
		Windows:   g.windows,
		Skipped:   g.skipped,
		Messages:  g.messages,
	}
}

// Send enqueues a call fn(arg, aux) on shard dst at absolute time at.
// fn is meant to be built once by the sender (per link, say) and arg to
// be a pointer, so a send allocates nothing. It must be called either
// from code executing inside shard src's window (the cross-shard link
// adapters) or between Run calls. at earlier than the current window's
// end panics: that is a lookahead violation — the sending process
// claimed a cross-shard effect faster than the minimum cross-shard
// propagation delay the group was built with.
func (g *ShardGroup) Send(src, dst int, at Time, fn func(arg any, aux int), arg any, aux int) {
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d outside [0,%d)", src, dst, len(g.shards)))
	}
	if at < g.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard send at %v violates lookahead (window ends %v): cross-shard latency below the group lookahead %v", at, g.windowEnd, g.lookahead))
	}
	g.outbox[src] = append(g.outbox[src], xmsg{at: at, dst: dst, fn: fn, arg: arg, aux: aux})
}

// nextEventAt returns the earliest pending event time across all shards.
func (g *ShardGroup) nextEventAt() (Time, bool) {
	var min Time
	any := false
	for _, e := range g.shards {
		if at, ok := e.nextEventAt(); ok && (!any || at < min) {
			min, any = at, true
		}
	}
	return min, any
}

// runWindow executes every shard up to wend, spreading shards over
// workers goroutines when workers > 1. Each shard is executed by exactly
// one worker; shard state is untouched by any other goroutine until the
// WaitGroup barrier publishes it back to the coordinator.
func (g *ShardGroup) runWindow(wend Time, workers int) {
	p := g.prof
	if workers <= 1 {
		if p == nil {
			for _, e := range g.shards {
				e.RunUntil(wend)
			}
			return
		}
		for i, e := range g.shards {
			g.runShardProfiled(i, e, wend)
		}
		p.settleBarrier()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.shards) {
					return
				}
				if p != nil {
					g.runShardProfiled(i, g.shards[i], wend)
				} else {
					g.shards[i].RunUntil(wend)
				}
			}
		}()
	}
	wg.Wait()
	if p != nil {
		p.settleBarrier()
	}
}

// flush schedules every outboxed message into its destination engine in
// canonical (at, source shard, enqueue order) order. Runs at the window
// barrier, on the coordinator goroutine. Ordering by timestamp first
// means two same-instant messages tie-break by source shard regardless
// of which chunk of the window each was produced in, keeping destination
// sequence numbers a pure function of the scenario. The merge is a
// stable insertion sort into a reused scratch buffer: barrier batches
// are small and mostly time-sorted already, and it allocates nothing
// once the buffer has grown. Each merged message is then bound, in that
// order, to a delivery slot from its destination's free list.
func (g *ShardGroup) flush() {
	p := g.prof
	m := g.merge[:0]
	for src := range g.outbox {
		msgs := g.outbox[src]
		for i := range msgs {
			x := msgs[i]
			m = append(m, x)
			j := len(m) - 1
			for ; j > 0 && m[j-1].at > x.at; j-- {
				m[j] = m[j-1]
			}
			m[j] = x
			msgs[i].fn, msgs[i].arg = nil, nil
		}
		g.messages += uint64(len(msgs))
		if p != nil {
			p.lanes[src].OutboxMsgs += uint64(len(msgs))
		}
		g.outbox[src] = msgs[:0]
	}
	if p != nil {
		if len(m) > p.mergeHW {
			p.mergeHW = len(m)
		}
		p.logWindow(g, uint64(len(m)))
	}
	for i := range m {
		x := &m[i]
		d := g.free[x.dst]
		if d == nil {
			d = &delivery{home: &g.free[x.dst]}
		} else {
			g.free[x.dst] = d.next
			d.next = nil
		}
		d.fn, d.arg, d.aux = x.fn, x.arg, x.aux
		g.shards[x.dst].Schedule(x.at, d)
		x.fn, x.arg = nil, nil
	}
	g.merge = m[:0]
}

// Run executes every shard's events with timestamps <= until, in
// conservative windows, using the given number of worker goroutines
// (clamped to [1, Shards()]). Unless the deadline cuts a window, every
// shard's clock ends at until.
//
// Windows start at the earliest pending event across shards rather than
// marching in fixed lookahead steps, so a shard idle for a long span
// (barrier starvation) costs no empty windows: the group fast-forwards
// over the gap in one step. A window's end is start + lookahead — never
// the caller's deadline — so a deadline landing mid-window merely cuts
// the window into chunks: the outboxes flush only when the window
// completes, and the window grid, flush instants and scheduling
// sequence numbers are identical whether the caller advances in one Run
// call or many. Checkpoint cut points are therefore invisible to the
// simulation, exactly as for a single Engine.
func (g *ShardGroup) Run(until Time, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	for {
		if !g.winOpen {
			start, any := g.nextEventAt()
			if !any || start > until {
				break
			}
			if len(g.shards) > 1 {
				if start > g.now {
					g.skipped++
				}
				g.windowEnd = start.Add(g.lookahead)
			} else {
				// One shard has no cross-shard messages to order: the
				// whole span is a single window.
				g.windowEnd = until
			}
			g.winOpen = true
			g.windows++
			if g.prof != nil {
				g.prof.openWindow(g, start)
			}
		}
		target := g.windowEnd
		if until < target {
			target = until
		}
		g.runWindow(target, workers)
		g.now = target
		if target == g.windowEnd {
			// The window completed: flush its outboxes at the barrier.
			g.flush()
			g.winOpen = false
		}
		if g.winOpen {
			// The deadline cut the window; it stays open (outboxes
			// held) for the next Run to resume.
			return
		}
	}
	// Nothing left at or before the deadline: align every clock so
	// digests and After() offsets agree across shard counts.
	for _, e := range g.shards {
		if e.now < until {
			e.now = until
		}
	}
	if g.now < until {
		g.now = until
	}
	g.windowEnd = until
}

// FoldState folds the group's shard layout, any messages still held in
// outboxes (a fold taken mid-window sees them; their contents are a
// pure function of the scenario and the fold instant) and every shard
// engine in fixed shard order — the per-shard digest fold of checkpoint
// format v3.
func (g *ShardGroup) FoldState(d *checkpoint.Digest) {
	d.Int(len(g.shards))
	d.I64(int64(g.lookahead))
	d.I64(int64(g.now))
	for src := range g.outbox {
		d.Int(len(g.outbox[src]))
		for _, m := range g.outbox[src] {
			d.I64(int64(m.at))
			d.Int(m.dst)
		}
	}
	for _, e := range g.shards {
		e.FoldState(d)
	}
}
