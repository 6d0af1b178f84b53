package frame

import (
	"encoding/binary"
	"errors"
)

// Probe is the payload of a TypeBenchEcho reflection frame (Fig. 3): a
// sequence number plus two timestamp slots the reflector's eBPF program
// may overwrite in place (the TS-OW variant). The sender zeroes the slots;
// sizes below 20 bytes are rejected because §2.3's smallest industrial
// payload is 20 bytes and the probe must fit its own fields.
type Probe struct {
	Seq     uint32
	FlowID  uint32
	TS1     uint64 // filled by reflector variant TS-OW
	TS2     uint64
	Padding []byte // brings the payload to the experiment's target size
}

// probeFixedLen is the byte size of the fixed probe fields.
const probeFixedLen = 4 + 4 + 8 + 8

// ErrProbeTooShort reports a probe payload below the fixed field size.
var ErrProbeTooShort = errors.New("frame: probe payload too short")

// MarshalProbeInto encodes p into buf (typically a pooled payload),
// writing the fixed fields and padding. Bytes of buf beyond the fixed
// fields and p.Padding are left untouched.
func MarshalProbeInto(p Probe, buf []byte) error {
	if len(buf) < probeFixedLen {
		return ErrProbeTooShort
	}
	binary.BigEndian.PutUint32(buf[0:], p.Seq)
	binary.BigEndian.PutUint32(buf[4:], p.FlowID)
	binary.BigEndian.PutUint64(buf[8:], p.TS1)
	binary.BigEndian.PutUint64(buf[16:], p.TS2)
	copy(buf[probeFixedLen:], p.Padding)
	return nil
}

// UnmarshalProbe decodes a probe payload.
func UnmarshalProbe(data []byte) (Probe, error) {
	if len(data) < probeFixedLen {
		return Probe{}, ErrProbeTooShort
	}
	p := Probe{
		Seq:    binary.BigEndian.Uint32(data[0:]),
		FlowID: binary.BigEndian.Uint32(data[4:]),
		TS1:    binary.BigEndian.Uint64(data[8:]),
		TS2:    binary.BigEndian.Uint64(data[16:]),
	}
	if len(data) > probeFixedLen {
		p.Padding = data[probeFixedLen:]
	}
	return p, nil
}

// ProbeTimestampOffsets returns the byte offsets of the TS1/TS2 slots
// within the payload — the locations the TS-OW eBPF variant pokes.
func ProbeTimestampOffsets() (ts1, ts2 int) { return 8, 16 }
