package simnet

import (
	"slices"
	"testing"

	"steelnet/internal/frame"
)

// fifoFrames is how many frames FuzzFIFO moves around: few enough that
// pushes often find their frame already queued somewhere.
const fifoFrames = 12

// FuzzFIFO drives three frame.FIFOs and one PriorityQueue against slice
// oracles. Each op is two bytes, a kind and an argument; the low four
// bits of the argument pick a frame and the next two a container
// (0-2 a FIFO, 3 the priority queue):
//
//	0 push   1 pop   2 move (pop one container, push the result into
//	another)   3 peek   4 drain the priority queue   5 clone a frame
//	6 rebound the priority queue's classes
//
// A push of a frame that is already queued, anywhere, must panic and
// change nothing; a push into a full class must be refused as a tail
// drop. After every op each FIFO walks, peeks and reports Queued exactly
// as its oracle says, a frame off every list is unlinked, and the
// priority queue's Len, ClassLen, Peek and per-class accept counts match.
func FuzzFIFO(f *testing.F) {
	op := func(kind, frameIdx, container byte) []byte {
		return []byte{kind, container<<4 | frameIdx}
	}
	// One element: push, peek, pop, pop on empty, push again.
	f.Add(slices.Concat(op(0, 1, 0), op(3, 0, 0), op(1, 0, 0), op(1, 0, 0), op(0, 1, 0), op(1, 0, 0)))
	// A frame moves through every container, then is pushed twice.
	f.Add(slices.Concat(op(0, 2, 0), op(2, 0, 0|1<<2), op(2, 0, 1|2<<2), op(2, 0, 2|3<<2),
		op(0, 2, 1), op(2, 0, 3|0<<2), op(0, 2, 0), op(5, 2, 0)))
	// Fill the priority queue past its bound, then drain it.
	var fill []byte
	for i := range byte(fifoFrames) {
		fill = append(fill, op(0, i, 3)...)
	}
	f.Add(slices.Concat(op(6, 0, 0), fill, op(5, 3, 0), op(4, 0, 0), op(1, 0, 3)))
	// Interleaved FIFO traffic that empties and refills each list.
	f.Add(slices.Concat(op(0, 0, 0), op(0, 1, 0), op(0, 2, 1), op(1, 0, 0), op(0, 3, 0),
		op(1, 0, 0), op(1, 0, 0), op(1, 0, 0), op(0, 0, 0), op(2, 0, 1), op(3, 0, 1)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		frames := make([]*frame.Frame, fifoFrames)
		for i := range frames {
			frames[i] = &frame.Frame{Tagged: true, Priority: frame.PCP(i % 8), Meta: frame.Meta{FlowID: uint32(i)}}
		}
		var fifos [3]frame.FIFO
		var lists [3][]*frame.Frame // FIFO oracles, head first
		q := NewPriorityQueue(2)
		var classes [8][]*frame.Frame // the queue's oracle
		var accepted [8]uint64
		var pool frame.Pool

		queuedAt := func(g *frame.Frame) bool {
			for _, l := range lists {
				if slices.Contains(l, g) {
					return true
				}
			}
			for _, l := range classes {
				if slices.Contains(l, g) {
					return true
				}
			}
			return false
		}
		// push puts g into container c and reports whether it was
		// accepted; a queued g must panic and leave everything as it was.
		push := func(step int, g *frame.Frame, c int) bool {
			if queuedAt(g) {
				defer func() {
					if recover() == nil {
						t.Fatalf("step %d: push of queued flow %d into container %d did not panic", step, g.Meta.FlowID, c)
					}
				}()
			}
			if c < 3 {
				fifos[c].Push(g)
				lists[c] = append(lists[c], g)
				return true
			}
			pcp := g.EffectivePriority()
			if !q.Push(g) {
				if len(classes[pcp]) < q.Limit() {
					t.Fatalf("step %d: class %d refused flow %d at depth %d, limit %d", step, pcp, g.Meta.FlowID, len(classes[pcp]), q.Limit())
				}
				return false
			}
			if len(classes[pcp]) >= q.Limit() {
				t.Fatalf("step %d: class %d accepted flow %d past its limit %d", step, pcp, g.Meta.FlowID, q.Limit())
			}
			classes[pcp] = append(classes[pcp], g)
			accepted[pcp]++
			return true
		}
		head := func(c int) *frame.Frame {
			if c < 3 {
				if len(lists[c]) == 0 {
					return nil
				}
				return lists[c][0]
			}
			for pcp := 7; pcp >= 0; pcp-- {
				if len(classes[pcp]) > 0 {
					return classes[pcp][0]
				}
			}
			return nil
		}
		pop := func(step, c int) *frame.Frame {
			want := head(c)
			var got *frame.Frame
			if c < 3 {
				got = fifos[c].Pop()
				if want != nil {
					lists[c] = lists[c][1:]
				}
			} else {
				got = q.Pop()
				if want != nil {
					pcp := want.EffectivePriority()
					classes[pcp] = classes[pcp][1:]
				}
			}
			if got != want {
				t.Fatalf("step %d: pop of container %d = %v, want %v", step, c, got, want)
			}
			if got != nil && got.Queued() {
				t.Fatalf("step %d: popped flow %d is still linked", step, got.Meta.FlowID)
			}
			return got
		}

		for step := 0; len(ops) >= 2; ops, step = ops[2:], step+1 {
			g, c := frames[int(ops[1]&15)%fifoFrames], int(ops[1]>>4&3)
			switch ops[0] % 7 {
			case 0:
				push(step, g, c)
			case 1:
				pop(step, c)
			case 2:
				if moved := pop(step, c); moved != nil {
					push(step, moved, int(ops[1]>>6))
				}
			case 3:
				peek := q.Peek()
				if c < 3 {
					peek = fifos[c].Peek()
				}
				if peek != head(c) {
					t.Fatalf("step %d: peek of container %d = %v, want %v", step, c, peek, head(c))
				}
			case 4:
				var drained []*frame.Frame
				q.Drain(func(d *frame.Frame) {
					if d.Queued() {
						t.Fatalf("step %d: Drain handed over flow %d still linked", step, d.Meta.FlowID)
					}
					drained = append(drained, d)
				})
				var want []*frame.Frame
				for pcp := 7; pcp >= 0; pcp-- {
					want = append(want, classes[pcp]...)
					classes[pcp] = nil
				}
				if !slices.Equal(drained, want) {
					t.Fatalf("step %d: Drain order %v, want %v", step, drained, want)
				}
			case 5:
				for name, cp := range map[string]*frame.Frame{"Frame.Clone": g.Clone(), "Pool.Clone": pool.Clone(g)} {
					if cp.Queued() {
						t.Fatalf("step %d: %s of flow %d came out linked", step, name, g.Meta.FlowID)
					}
					var own frame.FIFO
					own.Push(cp)
					if own.Peek() != cp || own.Pop() != cp || own.Pop() != nil || cp.Queued() {
						t.Fatalf("step %d: %s of flow %d does not queue on its own", step, name, g.Meta.FlowID)
					}
				}
			case 6:
				q.SetLimit(1 + int(ops[1])%3)
			}

			for k := range fifos {
				var walked []*frame.Frame
				for w := range fifos[k].All() {
					walked = append(walked, w)
				}
				if !slices.Equal(walked, lists[k]) {
					t.Fatalf("step %d: FIFO %d walks %v, want %v", step, k, walked, lists[k])
				}
				if fifos[k].Peek() != head(k) {
					t.Fatalf("step %d: FIFO %d peeks %v, want %v", step, k, fifos[k].Peek(), head(k))
				}
			}
			total := 0
			for pcp := range classes {
				total += len(classes[pcp])
				if q.ClassLen(frame.PCP(pcp)) != len(classes[pcp]) || q.EnqueuedPerClass[pcp] != accepted[pcp] {
					t.Fatalf("step %d: class %d holds %d and accepted %d, want %d and %d",
						step, pcp, q.ClassLen(frame.PCP(pcp)), q.EnqueuedPerClass[pcp], len(classes[pcp]), accepted[pcp])
				}
			}
			if q.Len() != total || q.Peek() != head(3) {
				t.Fatalf("step %d: queue Len %d peek %v, want %d and %v", step, q.Len(), q.Peek(), total, head(3))
			}
			for _, fr := range frames {
				if fr.Queued() != queuedAt(fr) {
					t.Fatalf("step %d: flow %d Queued = %t, want %t", step, fr.Meta.FlowID, fr.Queued(), !fr.Queued())
				}
			}
		}
	})
}
