package frame

import "testing"

func TestPoolDoubleReleasePanics(t *testing.T) {
	var p Pool
	f := p.Get(16)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(f)
}

func TestPoolReleaseAfterReuseIsFine(t *testing.T) {
	// Get must clear the pooled mark, otherwise the first legitimate Put
	// of a recycled frame would false-positive as a double release.
	var p Pool
	f := p.Get(8)
	p.Put(f)
	g := p.Get(8)
	if g != f {
		t.Fatal("pool did not recycle the frame object")
	}
	p.Put(g) // must not panic
	if p.Puts != 2 {
		t.Fatalf("Puts = %d, want 2", p.Puts)
	}
}

func TestPoolOutstandingAccounting(t *testing.T) {
	var p Pool
	if p.Outstanding() != 0 {
		t.Fatalf("fresh pool Outstanding = %d", p.Outstanding())
	}
	a, b, c := p.Get(1), p.Get(2), p.Get(3)
	if p.Outstanding() != 3 {
		t.Fatalf("Outstanding = %d after 3 Gets, want 3", p.Outstanding())
	}
	p.Put(a)
	p.Put(b)
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d after 2 Puts, want 1", p.Outstanding())
	}
	d := p.Get(4) // reuse, still counts as handed out
	if p.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d after reuse Get, want 2", p.Outstanding())
	}
	p.Put(c)
	p.Put(d)
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after full return, want 0", p.Outstanding())
	}
	if p.News != 3 || p.Reused != 1 || p.Puts != 4 {
		t.Fatalf("News/Reused/Puts = %d/%d/%d, want 3/1/4", p.News, p.Reused, p.Puts)
	}
}

func TestPoolCloneOfPooledFrameIsReleasable(t *testing.T) {
	// Pool.Clone copies the source wholesale and must scrub the pooled
	// mark; both source and clone then return to the pool independently.
	var p Pool
	src := p.Get(4)
	copy(src.Payload, []byte{1, 2, 3, 4})
	g := p.Clone(src)
	p.Put(src)
	p.Put(g) // must not panic
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0", p.Outstanding())
	}
}

func TestFrameCloneClearsPooledMark(t *testing.T) {
	// Frame.Clone (the non-pooled deep copy) of a pool-owned frame must
	// also produce a frame the pool will accept exactly once.
	var p Pool
	src := p.Get(4)
	g := src.Clone()
	p.Put(src)
	p.Put(g)
	if p.Puts != 2 {
		t.Fatalf("Puts = %d, want 2", p.Puts)
	}
}

func TestPoolMixedFramesFromOtherPools(t *testing.T) {
	// Frames migrate between pools (a server recycles request frames into
	// responses); Outstanding sums to zero across the set even though the
	// per-pool values go negative/positive.
	var a, b Pool
	f := a.Get(8)
	b.Put(f) // consumed by the other endpoint
	if sum := a.Outstanding() + b.Outstanding(); sum != 0 {
		t.Fatalf("cross-pool Outstanding sum = %d, want 0", sum)
	}
	if a.Outstanding() != 1 || b.Outstanding() != -1 {
		t.Fatalf("per-pool Outstanding = %d/%d, want 1/-1", a.Outstanding(), b.Outstanding())
	}
}

// TestPoolStacksShareTheOneFreeList: however a stack ends — stripped by
// a sink, returned still attached to its frame, or handed to a clone —
// it lands on the pool's one stack free list, and what comes back off
// it is field for field what Frame.AttachINT builds.
func TestPoolStacksShareTheOneFreeList(t *testing.T) {
	var p Pool
	f := p.Get(8)
	st := p.AttachINT(f, "src", 7, 1, 100, 0)
	if f.INT != st || p.StackNews != 1 || p.StacksOutstanding() != 1 {
		t.Fatalf("first attach: stack %p on frame %p, pool %+v", st, f.INT, p)
	}
	st.Strict = true
	st.PushHop(INTHop{Node: "sw1", IngressNS: 1, EgressNS: 2, QueueDepth: 3, DropRisk: true})

	// Sink: the stripped stack is the next one attached, reset.
	p.StripINT(f)
	if f.INT != nil || p.StacksOutstanding() != 0 {
		t.Fatalf("StripINT left stack %v, %d outstanding", f.INT, p.StacksOutstanding())
	}
	p.StripINT(f) // no stack: no-op
	if p.StackPuts != 1 {
		t.Fatalf("StackPuts = %d after a no-op strip, want 1", p.StackPuts)
	}
	re := p.AttachINT(f, "src2", 8, 2, 200, 4)
	want := (&Frame{}).AttachINT("src2", 8, 2, 200, 4)
	if re != st || re.Source != want.Source || re.SourceNS != want.SourceNS || re.FlowID != want.FlowID ||
		re.Seq != want.Seq || re.MaxHops != want.MaxHops || re.Strict || len(re.Hops) != 0 || cap(re.Hops) < want.MaxHops {
		t.Fatalf("recycled stack = %+v (same object: %t), want %+v", re, re == st, want)
	}

	// Clone: the copy's stack comes off the same list, hop storage apart.
	re.PushHop(INTHop{Node: "sw1"})
	spare := p.Get(1)
	p.AttachINT(spare, "x", 1, 1, 0, 0)
	spareStack := spare.INT
	p.Put(spare) // still attached: Put recycles it
	if spare.INT != nil || p.StacksOutstanding() != 1 {
		t.Fatalf("Put left stack %v on the frame, %d outstanding", spare.INT, p.StacksOutstanding())
	}
	g := p.Clone(f)
	if g.INT != spareStack || g.INT == f.INT {
		t.Fatalf("clone's stack %p: want the recycled %p, not the source's %p", g.INT, spareStack, f.INT)
	}
	if g.INT.Source != "src2" || g.INT.Seq != 2 || g.INT.MaxHops != 4 || len(g.INT.Hops) != 1 || g.INT.Hops[0].Node != "sw1" {
		t.Fatalf("clone stack = %+v", g.INT)
	}
	g.INT.PushHop(INTHop{Node: "sw2"})
	if len(f.INT.Hops) != 1 || cap(g.INT.Hops) < g.INT.MaxHops {
		t.Fatalf("clone shares hop storage or lost headroom: src %d hops, clone cap %d", len(f.INT.Hops), cap(g.INT.Hops))
	}

	// A replaced stack is recycled, not dropped.
	p.AttachINT(f, "again", 1, 3, 300, 0)
	p.Put(f)
	p.Put(g)
	if p.StacksOutstanding() != 0 || p.Outstanding() != 0 || len(p.stacks) != 2 {
		t.Fatalf("after full return: %d stacks outstanding, %d frames, %d on the list", p.StacksOutstanding(), p.Outstanding(), len(p.stacks))
	}
	if p.StackNews != 2 || p.StackReused != 3 || p.StackPuts != 5 {
		t.Fatalf("StackNews/Reused/Puts = %d/%d/%d, want 2/3/5", p.StackNews, p.StackReused, p.StackPuts)
	}

	// The frame's stack went to the list at the first Put; the second
	// Put of the same frame is still a double release.
	defer func() {
		if recover() == nil {
			t.Fatal("double Put of a frame that carried a stack did not panic")
		}
		if p.StackPuts != 5 {
			t.Fatalf("the refused Put touched the stack list: StackPuts = %d", p.StackPuts)
		}
	}()
	p.Put(f)
}

// TestPoolINTSteadyStateZeroAllocs: attach, stamp, clone, strip and
// return allocate nothing once the lists hold what one round needs.
func TestPoolINTSteadyStateZeroAllocs(t *testing.T) {
	var p Pool
	round := func() {
		f := p.Get(64)
		p.AttachINT(f, "src", 1, 1, 0, 0).PushHop(INTHop{Node: "sw"})
		g := p.Clone(f)
		p.StripINT(g)
		p.Put(g)
		p.Put(f)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%.0f allocs per round, want 0", n)
	}
}
