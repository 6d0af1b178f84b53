package simnet

import (
	"slices"
	"sync"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// TestBlueprintInstancesShareOnlyWhatNoOneWrites runs instances of one
// routed blueprint at once, each on its own engine and goroutine. In
// one, every switch on a path learns a station the routes do not know;
// in another, a switch fails and restarts, which flushes its FIB. The
// blueprint's images stay as they were, an instance that wrote nothing
// still reads them, and every instance ends in the state a network
// built alone from its own blueprint ends in.
func TestBlueprintInstancesShareOnlyWhatNoOneWrites(t *testing.T) {
	const horizon = sim.Time(400_000)
	g := randomPlant(sim.NewRNG(9))
	hosts := g.NodesOfKind(topo.KindHost)
	switches := g.NodesOfKind(topo.KindSwitch)
	stranger := frame.NewMAC(0xbeef)
	const (
		quiet = iota
		learns
		fails
	)
	// run drives n: every host sends to the next one on its own period;
	// learns injects frames from stranger, fails crashes a switch mid-run.
	run := func(n *Network, e *sim.Engine, mode int) uint64 {
		for i, id := range hosts {
			src, dst := n.Host(id), n.Host(hosts[(i+1)%len(hosts)]).MAC()
			e.Every(sim.Time(1000+137*i), sim.Duration(2000+300*i), sim.Func(func() {
				if e.Now() <= horizon-50_000 {
					src.Send(&frame.Frame{Dst: dst, Payload: make([]byte, 96)})
				}
			}))
		}
		switch mode {
		case learns:
			src, dst := n.Host(hosts[0]), n.Host(hosts[len(hosts)-1]).MAC()
			e.Every(5000, 10_000, sim.Func(func() {
				if e.Now() <= horizon-50_000 {
					src.Port().Send(&frame.Frame{Src: stranger, Dst: dst, Payload: make([]byte, 64)})
				}
			}))
		case fails:
			sw := n.Switch(switches[0])
			e.Schedule(100_000, sim.Func(sw.Fail))
			e.Schedule(200_000, sim.Func(sw.Restart))
		}
		e.RunUntil(horizon)
		d := checkpoint.NewDigest()
		n.FoldState(d)
		return d.Sum()
	}

	bp := NewBlueprint(g).WithStaticRoutes()
	images := make([][]uint64, len(bp.fibs))
	for i, t := range bp.fibs {
		images[i] = slices.Clone(t.slots)
	}
	modes := []int{quiet, learns, fails, quiet}
	nets := make([]*Network, len(modes))
	got := make([]uint64, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		e := sim.NewEngine(3)
		nets[i] = bp.Instantiate(e, DefaultSwitchConfig)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(nets[i], e, mode)
		}()
	}
	wg.Wait()

	for i, mode := range modes {
		e := sim.NewEngine(3)
		if want := run(NewBlueprint(g).WithStaticRoutes().Instantiate(e, DefaultSwitchConfig), e, mode); got[i] != want {
			t.Errorf("instance %d (mode %d): digest %#x, built alone %#x", i, mode, got[i], want)
		}
	}
	for k, t0 := range bp.fibs {
		if !slices.Equal(t0.slots, images[k]) {
			t.Fatalf("switch %d: the blueprint's FIB image changed", switches[k])
		}
	}
	learned := 0
	for k, id := range switches {
		if nets[learns].Switch(id).LookupPort(stranger) >= 0 {
			learned++
		}
		if sw := nets[quiet].Switch(id); !sw.fib.shared || &sw.fib.slots[0] != &bp.fibs[k].slots[0] {
			t.Errorf("switch %d of a quiet instance no longer reads the blueprint's image", id)
		}
		if nets[quiet].Switch(id).LookupPort(stranger) >= 0 {
			t.Errorf("switch %d of a quiet instance knows the station its sibling learned", id)
		}
	}
	if learned == 0 {
		t.Fatal("no switch learned the stranger: the test wrote nothing")
	}
	if sw := nets[fails].Switch(switches[0]); sw.DroppedWhileFailed == 0 {
		t.Fatal("the failed switch dropped nothing: the test crashed nothing that mattered")
	}
}
