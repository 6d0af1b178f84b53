package simnet

import (
	"testing"

	"steelnet/internal/frame"
)

func TestPriorityQueuePerPCPOrdering(t *testing.T) {
	// Enqueue a round-robin mix over all eight classes, then verify the
	// global drain order: strictly descending PCP, FIFO within each.
	q := NewPriorityQueue(64)
	const perClass = 5
	for i := 0; i < perClass; i++ {
		for pcp := 0; pcp < 8; pcp++ {
			ok := q.Push(&frame.Frame{
				Tagged:   true,
				Priority: frame.PCP(pcp),
				Meta:     frame.Meta{FlowID: uint32(pcp*100 + i)},
			})
			if !ok {
				t.Fatalf("push pcp=%d i=%d rejected", pcp, i)
			}
		}
	}
	for pcp := 7; pcp >= 0; pcp-- {
		for i := 0; i < perClass; i++ {
			f := q.Pop()
			if f == nil {
				t.Fatalf("queue empty at pcp=%d i=%d", pcp, i)
			}
			if want := uint32(pcp*100 + i); f.Meta.FlowID != want {
				t.Fatalf("drain order: got flow %d, want %d", f.Meta.FlowID, want)
			}
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after full drain", q.Len())
	}
	for pcp := 0; pcp < 8; pcp++ {
		if q.EnqueuedPerClass[pcp] != perClass {
			t.Fatalf("EnqueuedPerClass[%d] = %d, want %d", pcp, q.EnqueuedPerClass[pcp], perClass)
		}
	}
}

func TestPriorityQueueUntaggedRidesBestEffort(t *testing.T) {
	// An untagged frame's Priority field is wire-meaningless and must not
	// buy it a better class: it queues at PCP 0 behind nothing and ahead
	// of nothing tagged.
	q := NewPriorityQueue(8)
	q.Push(&frame.Frame{Tagged: false, Priority: frame.PrioNetControl, Meta: frame.Meta{FlowID: 1}})
	q.Push(&frame.Frame{Tagged: true, Priority: frame.PrioML, Meta: frame.Meta{FlowID: 2}})
	if q.ClassLen(0) != 1 || q.ClassLen(frame.PrioNetControl) != 0 {
		t.Fatalf("untagged frame queued at PCP %d", frame.PrioNetControl)
	}
	if f := q.Pop(); f.Meta.FlowID != 2 {
		t.Fatalf("tagged ML frame did not outrank untagged: popped flow %d", f.Meta.FlowID)
	}
	if f := q.Pop(); f.Meta.FlowID != 1 {
		t.Fatalf("untagged frame lost: popped flow %d", f.Meta.FlowID)
	}
}

func TestPriorityQueueDrainOrderAndReset(t *testing.T) {
	q := NewPriorityQueue(8)
	for _, pcp := range []frame.PCP{0, 6, 3, 6, 0, 3} {
		q.Push(&frame.Frame{Tagged: true, Priority: pcp, Meta: frame.Meta{FlowID: uint32(pcp)}})
	}
	var got []frame.PCP
	q.Drain(func(f *frame.Frame) { got = append(got, frame.PCP(f.Meta.FlowID)) })
	want := []frame.PCP{6, 6, 3, 3, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("drained %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatal("Drain left frames behind")
	}
	// Draining an empty queue calls nothing.
	q.Drain(func(*frame.Frame) { t.Fatal("drain callback on empty queue") })
}

// TestPriorityQueueDoublePushPanics: a frame already waiting in a queue
// has an owner; pushing it again, to the same queue or another, is two
// owners, and it panics at the push the way a double Pool.Put panics at
// the release — even when the class it would join is full.
func TestPriorityQueueDoublePushPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		other bool
	}{
		{"same queue", 8, false},
		{"same queue, class full", 1, false},
		{"another queue", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewPriorityQueue(tc.limit)
			f := &frame.Frame{Tagged: true, Priority: frame.PrioRT}
			if !q.Push(f) {
				t.Fatal("first push rejected")
			}
			target := q
			if tc.other {
				target = NewPriorityQueue(tc.limit)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("pushing a queued frame did not panic")
				}
				if q.Len() != 1 || q.Pop() != f || q.Pop() != nil {
					t.Fatal("the refused push disturbed the queue holding the frame")
				}
			}()
			target.Push(f)
		})
	}
}

func TestPriorityQueueMinimumLimitClamp(t *testing.T) {
	q := NewPriorityQueue(0) // clamps to 1
	if !q.Push(&frame.Frame{}) {
		t.Fatal("first push rejected at clamped limit")
	}
	if q.Push(&frame.Frame{}) {
		t.Fatal("second push accepted above clamped limit")
	}
	if q.DroppedPerClass[0] != 1 {
		t.Fatalf("DroppedPerClass[0] = %d, want 1", q.DroppedPerClass[0])
	}
}
