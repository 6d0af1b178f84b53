package simnet

import (
	"fmt"
	"slices"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// wireRig is one 1 Gb/s link with a 10 µs propagation delay from host a
// to host b, on one engine or across the two shards of a group. It
// records what became of every frame a sent: the instant b received it,
// or the drop counter of a's port that took it.
type wireRig struct {
	a, b   *Host
	link   *Link
	run    func()
	frames []*frame.Frame
	out    map[*frame.Frame]string
}

func newWireRig(t *testing.T, cross bool) *wireRig {
	t.Helper()
	const rate, prop = 1e9, 10 * sim.Microsecond
	r := &wireRig{out: map[*frame.Frame]string{}}
	if cross {
		g, err := sim.NewShardGroup(1, 2, prop)
		if err != nil {
			t.Fatal(err)
		}
		r.a = NewHost(g.Shard(0), "a", frame.NewMAC(1))
		r.b = NewHost(g.Shard(1), "b", frame.NewMAC(2))
		r.link = ConnectCross(g, "ab", r.a.Port(), r.b.Port(), 0, 1, rate, prop)
		r.run = func() { g.Run(sim.Time(sim.Millisecond), 1) }
	} else {
		e := sim.NewEngine(1)
		r.a, r.b = pair(e, rate, prop)
		r.link = r.a.Port().Link()
		r.run = e.Run
	}
	r.b.OnReceive(func(f *frame.Frame) {
		r.out[f] = fmt.Sprintf("delivered at %d", r.b.Engine().Now())
	})
	// Counters are bumped before the frame reaches OnDrop (a flush bumps
	// FlushedDrops for the whole queue at once), so a dropped frame is
	// attributed to the first cause whose counter is ahead of the frames
	// already attributed to it.
	var seen Accounting
	r.a.Port().OnDrop = func(f *frame.Frame) {
		now := Account(r.a.Port())
		switch {
		case now.WireDrops > seen.WireDrops:
			seen.WireDrops++
			r.out[f] = "WireDrops"
		case now.InjectedDrops > seen.InjectedDrops:
			seen.InjectedDrops++
			r.out[f] = "InjectedDrops"
		case now.FlushedDrops > seen.FlushedDrops:
			seen.FlushedDrops++
			r.out[f] = "FlushedDrops"
		default:
			r.out[f] = "dropped, no counter moved"
		}
	}
	return r
}

// at runs fn on a's engine at instant ns.
func (r *wireRig) at(ns int64, fn func()) { r.a.Engine().Schedule(sim.Time(ns), sim.Func(fn)) }

// send makes a send a minimum-size frame (512 ns on the wire) at ns.
func (r *wireRig) send(ns int64) {
	f := &frame.Frame{Dst: r.b.MAC(), Payload: make([]byte, 50)}
	r.frames = append(r.frames, f)
	r.at(ns, func() {
		if !r.a.Send(f) {
			r.out[f] = "refused"
		}
	})
}

// outcomes runs the rig and returns each sent frame's fate in send
// order, after checking a's port conserves every frame it accepted.
func (r *wireRig) outcomes(t *testing.T) []string {
	t.Helper()
	r.run()
	a := Account(r.a.Port(), r.b.Port())
	a.AddCrossLink(r.link)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(r.frames))
	for i, f := range r.frames {
		got[i] = r.out[f]
	}
	return got
}

// TestWireOrder pins what a link does to each frame it carries when it
// fails, flaps, loses or corrupts mid-journey. A frame being serialized
// when its link goes down dies on the wire, even if the link is back up
// before the serialization ends, and the port stays busy until then. A
// frame already propagating dies only if the link is down when it
// arrives, so a link back up before that instant carries it after all.
func TestWireOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		script func(r *wireRig)
		want   []string
	}{
		{"down mid-serialization, up after", func(r *wireRig) {
			r.send(0)   // serializing when the link dies: dies on the wire at 512
			r.send(100) // queued: flushed
			r.at(200, func() { r.link.SetUp(false) })
			r.at(1000, func() { r.link.SetUp(true) })
			r.send(2000)
		}, []string{"WireDrops", "FlushedDrops", "delivered at 12512"}},
		{"down mid-serialization, up before it ends", func(r *wireRig) {
			r.send(0) // cut at 200: dies on the wire at 512, up again or not
			r.at(200, func() { r.link.SetUp(false) })
			r.at(300, func() { r.link.SetUp(true) })
			r.send(400) // the port is busy until 512: serializes 512..1024
			r.send(450) // queued behind it: serializes 1024..1536
		}, []string{"WireDrops", "delivered at 11024", "delivered at 11536"}},
		{"down mid-propagation, up before arrival", func(r *wireRig) {
			r.send(0)
			r.send(0)
			r.at(5000, func() { r.link.SetUp(false) })
			r.send(5500) // refused at Send: the caller keeps it
			r.at(6000, func() { r.link.SetUp(true) })
			r.send(15000) // arrives at 25512, but the link is down from 20000 on
			r.at(20000, func() { r.link.SetUp(false) })
		}, []string{"delivered at 10512", "delivered at 11024", "refused", "WireDrops"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newWireRig(t, false)
			c.script(r)
			if got := r.outcomes(t); !slices.Equal(got, c.want) {
				t.Fatalf("outcomes %q, want %q", got, c.want)
			}
		})
	}
	for _, cross := range []bool{false, true} {
		t.Run(fmt.Sprintf("loss on alternate frames/cross=%v", cross), func(t *testing.T) {
			r := newWireRig(t, cross)
			var want []string
			for i := range 6 {
				ns := int64(i) * 1000
				r.at(ns, func() { r.a.Port().SetLossRate(float64(i % 2)) })
				r.send(ns)
				if i%2 == 1 {
					want = append(want, "InjectedDrops")
				} else {
					want = append(want, fmt.Sprintf("delivered at %d", ns+10512))
				}
			}
			if got := r.outcomes(t); !slices.Equal(got, want) {
				t.Fatalf("outcomes %q, want %q", got, want)
			}
		})
		t.Run(fmt.Sprintf("corrupt every frame/cross=%v", cross), func(t *testing.T) {
			r := newWireRig(t, cross)
			r.a.Port().SetCorruptRate(1)
			for range 3 {
				r.send(0)
			}
			want := []string{"delivered at 10512", "delivered at 11024", "delivered at 11536"}
			if got := r.outcomes(t); !slices.Equal(got, want) {
				t.Fatalf("outcomes %q, want %q", got, want)
			}
			for i, f := range r.frames {
				flipped := 0
				for _, o := range f.Payload {
					if o != 0 {
						flipped++
					}
				}
				if flipped != 1 {
					t.Fatalf("frame %d arrived with %d octets flipped, want 1", i, flipped)
				}
			}
		})
	}
}
