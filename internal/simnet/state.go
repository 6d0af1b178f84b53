package simnet

import (
	"encoding/binary"
	"slices"

	"steelnet/internal/checkpoint"
)

// This file folds the network's live state into a checkpoint.Digest.
// Fold order is part of the checkpoint format: changing what is folded
// or in which order makes old digests incomparable, which the restore
// path reports as divergence — bump checkpoint.FormatVersion when that
// is intended.

// foldState folds the queue's contents in drain order (highest class
// first, FIFO within a class) plus its accept counters, each class's
// beside its drop counter from dropped.
func (q *PriorityQueue) foldState(d *checkpoint.Digest, dropped *[8]uint64) {
	d.Int(q.Len())
	for c := 7; c >= 0; c-- {
		d.Int(int(q.depth[c]))
		for f := range q.classes[c].All() {
			f.FoldState(d)
		}
	}
	for c := range q.EnqueuedPerClass {
		d.U64(q.EnqueuedPerClass[c])
		d.U64(dropped[c])
	}
}

// FoldState folds the port's queue, transmission state and every
// counter that feeds figures or conservation accounting; a port without
// a cold block folds zeros for it.
func (p *Port) FoldState(d *checkpoint.Digest) {
	c := p.readCold()
	p.queue.foldState(d, &c.droppedPerClass)
	d.Bool(p.busy)
	d.Bool(c.pausedTx.Pending())
	d.Int(int(p.inFlight))
	d.U64(p.TxFrames)
	d.U64(p.RxFrames)
	d.U64(p.TxBytes)
	d.U64(p.RxBytes)
	d.U64(p.Drops())
	d.U64(c.injectedDrops)
	d.U64(c.corruptedFrames)
	d.U64(p.OverflowDrops())
	d.U64(c.downDrops)
	d.U64(c.shaperDrops)
	d.U64(c.flushedDrops)
	d.U64(c.wireDrops)
	d.U64(c.failedDrops)
	d.U64(c.intDrops)
	d.Int(p.QueueHighWater)
	d.F64(c.lossRate)
	d.F64(c.corruptRate)
}

// FoldState folds the switch's forwarding state: FIB and static entries
// in sorted MAC order, blocked ports in sorted index order, failure
// flag, forwarding counters, then every port.
func (s *Switch) FoldState(d *checkpoint.Digest) { s.foldState(d, nil) }

// foldState is FoldState sorting the FIB in buf's storage, which it
// returns (grown if it had to be) for the next switch's fold.
func (s *Switch) foldState(d *checkpoint.Digest, buf []uint64) []uint64 {
	buf = s.fib.fold(d, buf)
	blocked := 0
	for _, b := range s.blocked {
		if b {
			blocked++
		}
	}
	d.Int(blocked)
	for i, b := range s.blocked {
		if b {
			d.Int(i)
		}
	}
	d.Bool(s.failed)
	d.U64(s.FloodedFrames)
	d.U64(s.ForwardedFrames)
	d.U64(s.DroppedWhileFailed)
	d.U64(s.BlockedDrops)
	d.U64(s.HairpinDrops)
	d.U64(s.INTDrops)
	for i := range s.ports {
		s.ports[i].FoldState(d)
	}
	return buf
}

// fold folds the table's entries in MAC order, each as its MAC, port
// and static flag, sorting them in buf's storage, which it returns.
func (t *fibTable) fold(d *checkpoint.Digest, buf []uint64) []uint64 {
	slots := buf[:0]
	for _, e := range t.slots {
		if e != 0 {
			slots = append(slots, e)
		}
	}
	slices.Sort(slots) // key-major: MAC order
	d.Int(len(slots))
	for _, e := range slots {
		var mac [8]byte
		binary.BigEndian.PutUint64(mac[:], e>>fibKeyShift-1)
		d.Bytes(mac[2:])
		d.Int(int(e & fibPortMask))
		d.Bool(e&fibStatic != 0)
	}
	return slots
}

// FoldState folds the host's delivery count, INT source sequence and
// its single port.
func (h *Host) FoldState(d *checkpoint.Digest) {
	d.Bytes(h.mac[:])
	d.U64(h.RxCount)
	d.U64(uint64(h.intSeq))
	h.port.FoldState(d)
}

// FoldState folds the link's carrier state and per-direction delivery
// counters. Frames in flight on the link are engine events; their
// timing is covered by the engine fold and their content by the sending
// port's counters.
func (l *Link) FoldState(d *checkpoint.Digest) {
	d.Bool(l.up)
	d.U64(l.Delivered[0])
	d.U64(l.Delivered[1])
	// Zeros where a removed per-direction extra delay folded: digests stay put.
	d.I64(0)
	d.I64(0)
}

// FoldState folds every switch, then every host, then every link, each
// keyed by its graph id. The tables are indexed by id, so slice order is
// id order and the stream does not depend on how the nodes were placed:
// a one-engine and a sharded build of the same scenario fold alike.
// The switches sort their FIBs in one shared buffer.
func (n *Network) FoldState(d *checkpoint.Digest) {
	var fib []uint64
	for id, sw := range n.switches {
		if sw != nil {
			d.Int(id)
			fib = sw.foldState(d, fib)
		}
	}
	for id, h := range n.hosts {
		if h != nil {
			d.Int(id)
			h.FoldState(d)
		}
	}
	for id := range n.links {
		d.Int(id)
		n.links[id].FoldState(d)
	}
}
