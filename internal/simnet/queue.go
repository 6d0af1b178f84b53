package simnet

import (
	"math"
	"math/bits"

	"steelnet/internal/frame"
)

// PriorityQueue is a strict-priority egress queue with eight classes
// (one per 802.1Q PCP value) and a per-class depth bound. Higher PCP
// drains first; within a class frames are FIFO. Strict priority is what
// keeps never-ending RT microflows (§2.3) isolated from elephant flows
// sharing the port.
//
// Each class is a frame.FIFO threaded through the queued frames, so the
// queue is a fixed-size value with no buffer behind it: a Port holds
// its queue inline. busy has bit c set while class c holds a frame, so
// Peek and Pop find the highest busy class with one bit scan.
type PriorityQueue struct {
	classes [8]frame.FIFO
	depth   [8]int32
	limit   int32
	length  int32
	busy    uint8

	// EnqueuedPerClass counts accepted frames per priority class.
	EnqueuedPerClass [8]uint64
	// DroppedPerClass counts tail drops per priority class.
	DroppedPerClass [8]uint64
}

// NewPriorityQueue creates a queue holding at most perClassLimit frames
// in each priority class.
func NewPriorityQueue(perClassLimit int) *PriorityQueue {
	q := &PriorityQueue{}
	q.SetLimit(perClassLimit)
	return q
}

// SetLimit bounds each priority class at perClassLimit frames (at least
// one). Frames already queued stay; a class above the new bound refuses
// pushes until it drains below it.
func (q *PriorityQueue) SetLimit(perClassLimit int) {
	q.limit = int32(min(max(perClassLimit, 1), math.MaxInt32))
}

// Push enqueues f by its effective priority. It returns false on tail
// drop. Pushing a frame that is already queued, here or in any other
// queue, panics (see frame.FIFO).
func (q *PriorityQueue) Push(f *frame.Frame) bool {
	c := f.EffectivePriority() & 7
	if q.depth[c] >= q.limit && !f.Queued() {
		q.DroppedPerClass[c]++
		return false
	}
	q.classes[c].Push(f) // panics on a queued frame, full class or not
	q.depth[c]++
	q.busy |= 1 << c
	q.EnqueuedPerClass[c]++
	q.length++
	return true
}

// Peek returns the next frame to transmit without removing it, or nil.
func (q *PriorityQueue) Peek() *frame.Frame {
	if q.busy == 0 {
		return nil
	}
	return q.classes[bits.Len8(q.busy)-1].Peek()
}

// Pop removes and returns the next frame, or nil when empty.
func (q *PriorityQueue) Pop() *frame.Frame {
	if q.busy == 0 {
		return nil
	}
	c := bits.Len8(q.busy) - 1
	if q.depth[c]--; q.depth[c] == 0 {
		q.busy &^= 1 << c
	}
	q.length--
	return q.classes[c].Pop()
}

// Len returns the number of queued frames across all classes.
func (q *PriorityQueue) Len() int { return int(q.length) }

// ClassLen returns the depth of one priority class.
func (q *PriorityQueue) ClassLen(c frame.PCP) int { return int(q.depth[c&7]) }

// Limit returns the per-class depth bound.
func (q *PriorityQueue) Limit() int { return int(q.limit) }

// Clear drops all queued frames, unlinking each.
func (q *PriorityQueue) Clear() { q.Drain(func(*frame.Frame) {}) }

// Drain empties the queue like Clear but hands every dropped frame to
// fn, highest priority class first, FIFO within a class — the hook
// pooled transports need to reclaim frames a failure throws away.
func (q *PriorityQueue) Drain(fn func(*frame.Frame)) {
	for f := q.Pop(); f != nil; f = q.Pop() {
		fn(f)
	}
}
