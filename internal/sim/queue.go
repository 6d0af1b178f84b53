package sim

import "math/bits"

// The engine's event queue is a radix (monotone bucket) queue. It leans
// on the two things Schedule already enforces: no event is scheduled
// before now, and seq only grows. Every queued slot sits on exactly one
// FIFO list, threaded through slot.next:
//
//   - The front holds every queued slot of one instant, frontAt, and
//     nothing queued is earlier. It is what fires next.
//   - A bucket holds the slots whose timestamp, read as digits of a
//     mixed radix, first differs from the reference instant ref at the
//     bucket's level and has the bucket's digit there. Timestamps are
//     >= ref, so buckets in index order hold ever later instants, and
//     the earliest queued instant is in the lowest non-empty one.
//
// The digits are sized for what the engine simulates, frames on gigabit
// links: level 0 is the low 4 bits (16 buckets of one instant each),
// level 1 the next 9 (512 buckets of 16 ns, 8 µs in all), and every
// level above 4 bits (16 buckets). Propagation, switch pipelines and
// serialization put most events between 0.5 and 12 µs ahead at a
// spacing of tens of ns, so most are filed once on level 1, one or two
// to a bucket, and moved to the front from there.
//
// ref only moves to the instant of an event that is about to fire, so
// ref <= now always holds and every legal Schedule lands at or after it;
// peeking at, or reaping, a later instant leaves it alone. Moving ref to
// the front's instant re-files the one bucket that instant came from:
// its slots now first differ from ref at a lower level, so a slot is
// re-filed at most once per level.
//
// Pop order is exactly (at, seq): all slots of an instant share a list
// (the bucket is a function of at and ref alone), a list is appended to
// in seq order and moved in list order, so equal timestamps on a list
// are always in seq order — and the front is a FIFO.
const (
	fineBits = 4 // level 0: 16 buckets of one instant each
	nearBits = 9 // level 1: 512 buckets of 16 ns
	farBits  = 4 // levels 2 and up: 16 buckets each
	nearLow  = fineBits
	farLow   = fineBits + nearBits
	nearBase = 1 << fineBits
	farBase  = nearBase + 1<<nearBits
	// Time is non-negative, so bit 62 is the highest that can differ.
	numBuckets = farBase + ((62-farLow)/farBits+1)<<farBits
)

// Engine.words has one bit per 64 buckets.
const _ = uint(32 - (numBuckets+63)/64)

// bucketOf returns the bucket of instant at, which is not ref.
func (e *Engine) bucketOf(at Time) int {
	switch h := bits.Len64(uint64(at^e.ref)) - 1; {
	case h < nearLow:
		return int(at) & (nearBase - 1)
	case h < farLow:
		return nearBase + int(uint64(at)>>nearLow)&(1<<nearBits-1)
	default:
		l := (h - farLow) / farBits
		return farBase + l<<farBits + int(uint64(at)>>(farLow+l*farBits))&(1<<farBits-1)
	}
}

type bucket struct{ head, tail *slot }

func (b *bucket) push(s *slot) {
	s.next = nil
	if b.tail == nil {
		b.head = s
	} else {
		b.tail.next = s
	}
	b.tail = s
}

// file puts s, whose instant is not ref, in the bucket it belongs to.
func (e *Engine) file(s *slot) {
	i := e.bucketOf(s.at)
	e.q[i].push(s)
	e.used[i>>6] |= 1 << (i & 63)
	e.words |= 1 << (i >> 6)
}

// unmark records that bucket i has been emptied.
func (e *Engine) unmark(i int) {
	if e.used[i>>6] &^= 1 << (i & 63); e.used[i>>6] == 0 {
		e.words &^= 1 << (i >> 6)
	}
}

// enqueue queues a pending slot under its timestamp. The caller keeps
// qlen and the high-water mark.
func (e *Engine) enqueue(s *slot) {
	f := &e.front
	switch {
	case f.head == nil:
	case s.at == e.frontAt:
		f.push(s)
		return
	case s.at < e.frontAt:
		e.unfront()
	default:
		e.file(s)
		return
	}
	// The front is empty. An instant equal to ref cannot be preceded,
	// and neither can anything in an empty queue — which keeps a
	// one-event engine (a lone ticker) out of the buckets entirely.
	if e.words == 0 || s.at == e.ref {
		e.frontAt = s.at
		f.push(s)
		return
	}
	e.file(s)
}

// unfront returns the front's slots to the bucket their instant belongs
// in: something earlier was scheduled after the front had been found
// (a peek that fired nothing, then a Schedule between now and it).
func (e *Engine) unfront() {
	for s := e.front.head; s != nil; {
		next := s.next
		e.file(s)
		s = next
	}
	e.front = bucket{}
}

// settle makes the front hold the earliest live event's instant, with a
// live slot at its head, and reports whether there is one. Cancelled
// slots ordered before that event are released on the way — exactly the
// ones a heap would have surfaced — and nothing else. An instant that
// is no later than limit is about to fire, so ref may move to it at
// once; a later one is only looked at and ref stays, so that a
// cancelled or not-yet-due earliest event at T never stops a later
// Schedule between now and T from firing first.
func (e *Engine) settle(limit Time) bool {
	if s := e.front.head; s != nil && s.state == statePending {
		return true // small enough to inline: the front is usually ready
	}
	return e.settleSlow(limit)
}

func (e *Engine) settleSlow(limit Time) bool {
	f := &e.front
	for {
		for s := f.head; s != nil && s.state != statePending; s = f.head {
			f.head = s.next
			e.dropDead(s)
		}
		if f.head != nil {
			return true
		}
		f.tail = nil
		if e.words == 0 {
			return false
		}
		w := bits.TrailingZeros32(e.words)
		e.pullFront(w<<6|bits.TrailingZeros64(e.used[w]), limit)
	}
}

// dropDead releases a cancelled slot that has just been unlinked.
func (e *Engine) dropDead(s *slot) {
	e.dead--
	e.qlen--
	e.release(s)
}

// pullFront moves the earliest live instant of q[i], the lowest
// non-empty bucket, into the empty front, releasing the cancelled slots
// ordered before its first live slot. A bucket with no live slot is
// released whole: everything live is in a higher bucket, hence later.
func (e *Engine) pullFront(i int, limit Time) {
	src := e.q[i]
	e.q[i] = bucket{}
	e.unmark(i)
	switch s := src.head; {
	case i < nearBase:
		e.front, e.frontAt = src, s.at // level 0: one instant
		return
	case s == src.tail && s.state == statePending:
		e.front, e.frontAt = src, s.at // one live slot: nothing to re-file
		if s.at <= limit {
			e.ref = s.at
		}
		return
	}
	var first *slot // earliest live slot; list order breaks ties by seq
	for s := src.head; s != nil; s = s.next {
		if s.state == statePending && (first == nil || s.at < first.at) {
			first = s
		}
	}
	if first == nil {
		for s := src.head; s != nil; {
			next := s.next
			e.dropDead(s)
			s = next
		}
		return
	}
	at := first.at
	e.frontAt = at
	if at <= limit {
		e.ref = at // the rest of the bucket is re-filed against it
	}
	live := false // first has been reached
	for s := src.head; s != nil; {
		next := s.next
		live = live || s == first
		switch {
		case s.at > at:
			e.file(s)
		case s.at == at && live:
			e.front.push(s)
		default:
			e.dropDead(s) // cancelled: live slots are never before first
		}
		s = next
	}
}

// advance moves ref to now, the front's instant, which is about to fire,
// and re-files the slots that shared its bucket. Lower buckets are empty
// (they would hold earlier instants) and higher ones keep their place:
// their slots differ from the old and the new ref at the same digit.
func (e *Engine) advance() {
	at := e.now
	i := e.bucketOf(at)
	e.ref = at
	src := e.q[i]
	if src.head == nil {
		return
	}
	e.q[i] = bucket{}
	e.unmark(i)
	for s := src.head; s != nil; {
		next := s.next
		e.file(s)
		s = next
	}
}

// eachList calls fn on every non-empty list of the queue; fn may
// rebuild the list in place.
func (e *Engine) eachList(fn func(*bucket)) {
	if e.front.head != nil {
		fn(&e.front)
	}
	for ws := e.words; ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros32(ws)
		for bs := e.used[w]; bs != 0; bs &= bs - 1 {
			i := w<<6 | bits.TrailingZeros64(bs)
			if fn(&e.q[i]); e.q[i].head == nil {
				e.unmark(i)
			}
		}
	}
}

// maybeReap unlinks every cancelled slot once they dominate the queue,
// so a workload that cancels most of what it schedules (watchdogs fed
// every cycle) cannot grow the queue without bound between pops.
func (e *Engine) maybeReap() {
	if e.dead < reapMinDead || e.dead*2 <= e.qlen {
		return
	}
	e.eachList(func(b *bucket) {
		s := b.head
		*b = bucket{}
		for s != nil {
			next := s.next
			if s.state == statePending {
				b.push(s)
			} else {
				e.release(s)
			}
			s = next
		}
	})
	e.qlen -= e.dead
	e.dead = 0
}
