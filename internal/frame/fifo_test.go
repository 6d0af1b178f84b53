package frame

import (
	"strings"
	"testing"
	"unsafe"
)

// TestFrameSize: the FIFO link and the queued mark ride in the frame
// without moving it out of the 96-byte size class.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 96 {
		t.Fatalf("Frame is %d bytes, at most 96", n)
	}
}

// TestFIFO runs push/pop scripts over one FIFO: "+n" pushes frame n,
// "-" pops and must yield the next frame in push order (or nil when
// empty). After every step the frames walked by All must be exactly the
// ones pushed and not yet popped, and every frame must be linked iff it
// is among them.
func TestFIFO(t *testing.T) {
	for _, tc := range []struct {
		name, script string
	}{
		{"empty", "- -"},
		{"one", "+0 - -"},
		{"in order", "+0 +1 +2 - - - -"},
		{"interleaved", "+0 +1 - +2 - +3 +4 - - - -"},
		{"refill after empty", "+0 - - +1 +2 - +3 - - -"},
		{"re-push after pop", "+0 +1 - +0 - - -"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q FIFO
			frames := make([]*Frame, 5)
			for i := range frames {
				frames[i] = &Frame{Meta: Meta{FlowID: uint32(i)}}
			}
			var want []*Frame // the model: a slice in push order
			for step, op := range strings.Fields(tc.script) {
				if op == "-" {
					var exp *Frame
					if len(want) > 0 {
						exp, want = want[0], want[1:]
					}
					if got := q.Pop(); got != exp {
						t.Fatalf("step %d: Pop = %v, want %v", step, got, exp)
					}
				} else {
					f := frames[op[1]-'0']
					q.Push(f)
					want = append(want, f)
				}
				var walked []*Frame
				for f := range q.All() {
					walked = append(walked, f)
				}
				if len(walked) != len(want) {
					t.Fatalf("step %d: All walked %d frames, want %d", step, len(walked), len(want))
				}
				for i := range want {
					if walked[i] != want[i] {
						t.Fatalf("step %d: All[%d] = flow %d, want flow %d", step, i, walked[i].Meta.FlowID, want[i].Meta.FlowID)
					}
				}
				if len(want) > 0 && q.Peek() != want[0] || len(want) == 0 && q.Peek() != nil {
					t.Fatalf("step %d: Peek = %v", step, q.Peek())
				}
				for _, f := range frames {
					queued := false
					for _, w := range want {
						queued = queued || w == f
					}
					if f.Queued() != queued || !queued && f.next != nil {
						t.Fatalf("step %d: flow %d Queued = %t (next %p), want %t", step, f.Meta.FlowID, f.Queued(), f.next, queued)
					}
				}
			}
		})
	}
}

// TestFIFOCopiesComeOutUnlinked: every whole-frame copy of a queued
// frame — Clone, Pool.Clone, UnmarshalInto over a struct copy that
// carried the link — is a frame no FIFO holds, and pushing it leaves
// the source's FIFO intact.
func TestFIFOCopiesComeOutUnlinked(t *testing.T) {
	var q FIFO
	var p Pool
	a, b := p.Get(4), p.Get(4)
	q.Push(a)
	q.Push(b)
	if a.next != b || !a.Queued() {
		t.Fatal("setup: a is not linked to b")
	}
	into := *a // a struct copy carries the link
	if err := UnmarshalInto(&into, a.Marshal()); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Frame{
		"Frame.Clone":   a.Clone(),
		"Pool.Clone":    p.Clone(a),
		"UnmarshalInto": &into,
	} {
		if g.Queued() || g.next != nil || g.pooled {
			t.Errorf("%s: queued=%t next=%p pooled=%t, want an unlinked frame", name, g.Queued(), g.next, g.pooled)
		}
		var other FIFO
		other.Push(g)
		if other.Pop() != g {
			t.Errorf("%s: copy does not queue on its own", name)
		}
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Fatal("copies disturbed the source FIFO")
	}
}

// TestFIFOOwnership: a queued frame belongs to its FIFO. Pushing it
// again, to any FIFO, or putting it back to a pool panics and leaves
// the FIFO as it was.
func TestFIFOOwnership(t *testing.T) {
	for _, tc := range []struct {
		name string
		act  func(f *Frame, p *Pool)
	}{
		{"push to the same FIFO", nil},
		{"push to another FIFO", func(f *Frame, _ *Pool) { var o FIFO; o.Push(f) }},
		{"Put while queued", func(f *Frame, p *Pool) { p.Put(f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q FIFO
			var p Pool
			f := p.Get(1)
			q.Push(f)
			act := tc.act
			if act == nil {
				act = func(f *Frame, _ *Pool) { q.Push(f) }
			}
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
				if p.Puts != 0 || q.Pop() != f || q.Pop() != nil {
					t.Fatal("the refused operation changed the FIFO or the pool")
				}
				p.Put(f) // popped: releasable again
			}()
			act(f, &p)
		})
	}
}
