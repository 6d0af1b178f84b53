package plc

import (
	"sort"

	"steelnet/internal/checkpoint"
)

// FoldState folds the controller's connection state machine, process
// image, retentive logic memory and cyclic counters. Connections fold
// in sorted AR-id order.
func (c *Controller) FoldState(d *checkpoint.Digest) {
	d.Bool(c.failed)
	d.U64(0) // a retired counter's slot, so recorded digests stay valid
	d.U64(c.TxCyclic)
	d.U64(c.RxCyclic)
	d.U64(c.ScanCount)
	d.Bytes(c.image.Inputs)
	d.Bytes(c.image.Outputs)
	if c.runner != nil {
		d.Bytes(c.runner.Memory())
	}
	arids := make([]int, 0, len(c.conns))
	for arid := range c.conns {
		arids = append(arids, int(arid))
	}
	sort.Ints(arids)
	d.Int(len(arids))
	for _, arid := range arids {
		conn := c.conns[uint32(arid)]
		d.Int(arid)
		d.Int(int(conn.state))
		d.Bytes(conn.inputs)
		d.U64(uint64(conn.counter))
		d.U64(uint64(conn.lastRx))
	}
	c.hst.FoldState(d)
}
