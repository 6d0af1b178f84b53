package frame

import "iter"

// FIFO is a first-in first-out queue of frames linked through the frames
// themselves. It is one pointer, the tail of a circular list threaded
// through Frame.next: the tail's link is the head, so Push, Pop and Peek
// are O(1) with no head pointer to keep. An empty queue is one nil
// pointer and no depth costs a buffer, so an egress port's eight
// priority classes weigh 64 bytes whether they ever carry a frame or
// not.
//
// A frame sits in at most one FIFO, and it is queued exactly when its
// link is set: even a lone frame links to itself. Push panics on a
// frame that is already queued — two queues believing they hold one
// frame is a double owner, and it would surface later as a frame
// transmitted twice or a list cut in half. Pop unlinks the frame it
// returns. Whole-frame copies (Frame.Clone, Pool.Clone, UnmarshalInto)
// come out unlinked; a frame must leave its FIFO before it is Put back
// to a pool.
type FIFO struct {
	tail *Frame
}

// Push appends f at the tail.
func (q *FIFO) Push(f *Frame) {
	if f.next != nil {
		panic("frame: push of a frame that is already queued")
	}
	if q.tail == nil {
		f.next = f
	} else {
		f.next = q.tail.next
		q.tail.next = f
	}
	q.tail = f
}

// Peek returns the head frame without removing it, or nil when empty.
func (q *FIFO) Peek() *Frame {
	if q.tail == nil {
		return nil
	}
	return q.tail.next
}

// Pop removes and returns the head frame, or nil when empty.
func (q *FIFO) Pop() *Frame {
	if q.tail == nil {
		return nil
	}
	f := q.tail.next
	if f == q.tail {
		q.tail = nil
	} else {
		q.tail.next = f.next
	}
	f.next = nil
	return f
}

// All yields the queued frames head first, leaving them queued.
func (q *FIFO) All() iter.Seq[*Frame] {
	return func(yield func(*Frame) bool) {
		if q.tail == nil {
			return
		}
		for f := q.tail.next; yield(f) && f != q.tail; f = f.next {
		}
	}
}

// Queued reports whether f is linked into a FIFO.
func (f *Frame) Queued() bool { return f.next != nil }
