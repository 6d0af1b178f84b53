package core

import (
	"steelnet/internal/checkpoint"
	"steelnet/internal/simnet"
)

// WalkChaosCell is what a resumable chaos sweep records of a completed
// cell.
func WalkChaosCell(c *checkpoint.Codec, v *ChaosCell) {
	checkpoint.Int(c, &v.Intensity)
	checkpoint.Int(c, &v.Trial)
	checkpoint.Int(c, &v.Seed)
	c.Str(&v.Plan)
	checkpoint.Int(c, &v.InjectedFaults)
	checkpoint.Int(c, &v.Switchovers)
	checkpoint.Int(c, &v.FailsafeEvents)
	c.F64(&v.IOAvailability)
	checkpoint.Int(c, &v.DeviceState)
	walkAccounting(c, &v.Accounting)
	checkpoint.Int(c, &v.INTObservations)
}

// walkAccounting omits CrossWire: a chaos cell runs on one engine and has
// no cross-shard wire to count.
func walkAccounting(c *checkpoint.Codec, a *simnet.Accounting) {
	checkpoint.Int(c, &a.Accepted)
	checkpoint.Int(c, &a.Delivered)
	checkpoint.Int(c, &a.Destroyed)
	checkpoint.Int(c, &a.Queued)
	checkpoint.Int(c, &a.InFlight)
	checkpoint.Int(c, &a.ShaperDrops)
	checkpoint.Int(c, &a.FlushedDrops)
	checkpoint.Int(c, &a.WireDrops)
	checkpoint.Int(c, &a.InjectedDrops)
	checkpoint.Int(c, &a.OverflowDrops)
	checkpoint.Int(c, &a.DownDrops)
	checkpoint.Int(c, &a.INTDrops)
}
