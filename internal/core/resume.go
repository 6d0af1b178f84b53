package core

import (
	"steelnet/internal/checkpoint"
	"steelnet/internal/iodevice"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
)

// chaosCheckpointer persists completed chaos cells for resumable
// sweeps (see sweep.RunCells).
func chaosCheckpointer(path string) sweep.Checkpointer[ChaosCell] {
	return sweep.Checkpointer[ChaosCell]{
		Path: path,
		Kind: "chaos",
		Encode: func(e *checkpoint.Encoder, c ChaosCell) {
			e.Int(c.Intensity)
			e.Int(c.Trial)
			e.U64(c.Seed)
			e.Str(c.Plan)
			e.Int(c.InjectedFaults)
			e.U64(c.Switchovers)
			e.U64(c.FailsafeEvents)
			e.F64(c.IOAvailability)
			e.Int(int(c.DeviceState))
			encodeAccounting(e, c.Accounting)
			e.U64(c.INTObservations)
		},
		Decode: func(d *checkpoint.Decoder) ChaosCell {
			return ChaosCell{
				Intensity:       d.Int(),
				Trial:           d.Int(),
				Seed:            d.U64(),
				Plan:            d.Str(),
				InjectedFaults:  d.Int(),
				Switchovers:     d.U64(),
				FailsafeEvents:  d.U64(),
				IOAvailability:  d.F64(),
				DeviceState:     iodevice.State(d.Int()),
				Accounting:      decodeAccounting(d),
				INTObservations: d.U64(),
			}
		},
	}
}

func encodeAccounting(e *checkpoint.Encoder, a simnet.Accounting) {
	e.U64(a.Accepted)
	e.U64(a.Delivered)
	e.U64(a.Destroyed)
	e.U64(a.Queued)
	e.U64(a.InFlight)
	e.U64(a.ShaperDrops)
	e.U64(a.FlushedDrops)
	e.U64(a.WireDrops)
	e.U64(a.InjectedDrops)
	e.U64(a.OverflowDrops)
	e.U64(a.DownDrops)
	e.U64(a.INTDrops)
}

func decodeAccounting(d *checkpoint.Decoder) simnet.Accounting {
	return simnet.Accounting{
		Accepted:      d.U64(),
		Delivered:     d.U64(),
		Destroyed:     d.U64(),
		Queued:        d.U64(),
		InFlight:      d.U64(),
		ShaperDrops:   d.U64(),
		FlushedDrops:  d.U64(),
		WireDrops:     d.U64(),
		InjectedDrops: d.U64(),
		OverflowDrops: d.U64(),
		DownDrops:     d.U64(),
		INTDrops:      d.U64(),
	}
}
