package frame

import "iter"

// FIFO is a first-in first-out queue of frames linked through the frames
// themselves: an empty queue is two nil pointers, and no depth costs a
// buffer, so an egress port's eight priority classes weigh 128 bytes
// whether they ever carry a frame or not.
//
// A frame sits in at most one FIFO. Push panics on a frame that is
// already queued — two queues believing they hold one frame is a double
// owner, and it would surface later as a frame transmitted twice or a
// list cut in half. Pop unlinks the frame it returns. Whole-frame copies
// (Frame.Clone, Pool.Clone, UnmarshalInto) come out unlinked; a frame
// must leave its FIFO before it is Put back to a pool.
type FIFO struct {
	head, tail *Frame
}

// Push appends f at the tail.
func (q *FIFO) Push(f *Frame) {
	if f.queued {
		panic("frame: push of a frame that is already queued")
	}
	f.queued = true
	if q.tail == nil {
		q.head = f
	} else {
		q.tail.next = f
	}
	q.tail = f
}

// Peek returns the head frame without removing it, or nil when empty.
func (q *FIFO) Peek() *Frame { return q.head }

// Pop removes and returns the head frame, or nil when empty.
func (q *FIFO) Pop() *Frame {
	f := q.head
	if f == nil {
		return nil
	}
	q.head = f.next
	if q.head == nil {
		q.tail = nil
	}
	f.next, f.queued = nil, false
	return f
}

// All yields the queued frames head first, leaving them queued.
func (q *FIFO) All() iter.Seq[*Frame] {
	return func(yield func(*Frame) bool) {
		for f := q.head; f != nil && yield(f); f = f.next {
		}
	}
}

// Queued reports whether f is linked into a FIFO.
func (f *Frame) Queued() bool { return f.queued }
