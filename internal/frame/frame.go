// Package frame models Ethernet-level frames as they traverse the
// simulated factory network: MAC addressing, 802.1Q VLAN/PCP tagging,
// and the binary payload encodings the industrial protocol and the ML
// workload use. Frames marshal to and from wire bytes so the eBPF VM,
// the programmable data plane and the tap all operate on real octets,
// exactly like their hardware counterparts.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// NewMAC builds a locally-administered unicast MAC from a 32-bit station
// id, giving every simulated node a stable, readable address.
func NewMAC(station uint32) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = 0x5e
	binary.BigEndian.PutUint32(m[2:], station)
	return m
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// String renders the address in canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherType identifies the frame payload protocol.
type EtherType uint16

// EtherTypes used in the simulation. ProfinetRT uses the real PROFINET
// value; the others are from reserved-for-documentation space.
const (
	TypeIPv4      EtherType = 0x0800
	TypeVLAN      EtherType = 0x8100
	TypeProfinet  EtherType = 0x8892 // PROFINET RT, real assignment
	TypePTP       EtherType = 0x88f7 // IEEE 1588
	TypeMLData    EtherType = 0x88b5 // experimental 1: ML inference frames
	TypeBenchEcho EtherType = 0x88b6 // experimental 2: reflection probes
)

// PCP is an 802.1Q priority code point (0-7). Industrial RT traffic
// conventionally rides at 6; best effort at 0.
type PCP uint8

// Priority levels used across the repository.
const (
	PrioBestEffort PCP = 0
	PrioML         PCP = 3
	PrioRT         PCP = 6
	PrioNetControl PCP = 7
)

// Frame is a parsed Ethernet frame. VLAN tagging is optional; when Tagged
// is false VID/Priority are ignored on the wire.
type Frame struct {
	Dst, Src MAC
	Tagged   bool
	Priority PCP
	VID      uint16 // 12-bit VLAN id
	Type     EtherType

	// pooled marks a frame currently sitting in a Pool free list, so a
	// double Put panics at the release site instead of corrupting the
	// list and surfacing as aliased payloads much later. queued marks a
	// frame linked into a FIFO (through next, below), so a second push
	// panics the same way. Both sit in the padding after Type.
	pooled, queued bool

	// ZeroTail counts zero octets that follow Payload on the wire
	// without being stored: a generated body nobody writes or reads
	// costs a count instead of a buffer. Everything that reads octets
	// (WireLen, MarshalInto, the clones, FoldState, Corrupt) sees
	// Payload followed by that many zeros. It sits in the padding after
	// queued.
	ZeroTail uint32

	Payload []byte

	// Simulation metadata, not serialized: these travel with the frame
	// object inside one node but are lost across marshal/unmarshal,
	// mirroring how real metadata lives in descriptors, not packets.
	Meta Meta

	// INT is the optional in-band telemetry stack (see int.go). Unlike
	// Meta it IS byte-accounted — WireLen grows with every stamped hop —
	// but like Meta it rides in the descriptor: marshaling strips it,
	// the way an INT sink strips the stack before host delivery.
	INT *INTStack

	// next links the frame to the one behind it in its FIFO.
	next *Frame
}

// Meta carries per-frame simulation metadata: the creation instant, the
// flow and the trace id.
type Meta struct {
	CreatedAt int64 // ns, set by the original sender
	FlowID    uint32
	// TraceID is the telemetry tracer's frame id, assigned lazily at the
	// frame's first traced event; 0 means untraced. Clones keep the id,
	// so flooded copies share one lifecycle line in the trace.
	TraceID uint64
}

// headerLen returns the byte length of the L2 header.
func (f *Frame) headerLen() int {
	if f.Tagged {
		return 18
	}
	return 14
}

// WireLen returns the total serialized length in bytes, before any
// minimum-size padding. Ethernet's 64-byte minimum (incl. FCS) is applied
// by the link model, not here, so tiny industrial payloads stay visible.
// An attached INT stack counts: telemetry-bearing frames pay real
// serialization and bandwidth for every stamped hop.
func (f *Frame) WireLen() int {
	n := f.headerLen() + f.BodyLen()
	if f.INT != nil {
		n += f.INT.WireBytes()
	}
	return n
}

// Marshal serializes the frame to freshly allocated wire bytes; see
// MarshalInto.
func (f *Frame) Marshal() []byte { return f.MarshalInto(nil) }

// MarshalInto serializes the frame to wire bytes, reusing buf's storage
// when its capacity suffices, and returns the encoded slice; the zero
// tail is written out as zeros. The INT stack is not serialized — it
// lives in the descriptor and is read by sinks before any
// marshal/unmarshal boundary.
func (f *Frame) MarshalInto(buf []byte) []byte {
	n := f.headerLen() + f.BodyLen()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	copy(buf[0:6], f.Dst[:])
	copy(buf[6:12], f.Src[:])
	off := 12
	if f.Tagged {
		binary.BigEndian.PutUint16(buf[off:], uint16(TypeVLAN))
		tci := uint16(f.Priority&7)<<13 | f.VID&0x0fff
		binary.BigEndian.PutUint16(buf[off+2:], tci)
		off += 4
	}
	binary.BigEndian.PutUint16(buf[off:], uint16(f.Type))
	body := buf[off+2:]
	clear(body[copy(body, f.Payload):]) // the zero tail, over whatever buf held
	return buf
}

// ErrTruncated reports a frame shorter than its headers claim.
var ErrTruncated = errors.New("frame: truncated")

// UnmarshalInto parses wire bytes into f, replacing its contents
// (metadata and INT stack included — neither crosses the wire — and
// the free-list mark and FIFO link, so the result is never linked). The
// payload aliases data; callers that mutate must copy. On error f is
// left untouched.
func UnmarshalInto(f *Frame, data []byte) error {
	if len(data) < 14 {
		return ErrTruncated
	}
	g := Frame{Type: EtherType(binary.BigEndian.Uint16(data[12:14]))}
	off := 14
	if g.Type == TypeVLAN {
		if len(data) < 18 {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(data[14:16])
		g.Tagged = true
		g.Priority = PCP(tci >> 13)
		g.VID = tci & 0x0fff
		g.Type = EtherType(binary.BigEndian.Uint16(data[16:18]))
		off = 18
	}
	copy(g.Dst[:], data[0:6])
	copy(g.Src[:], data[6:12])
	g.Payload = data[off:]
	*f = g
	return nil
}

// BodyLen returns the length of the body on the wire: Payload and its
// zero tail.
func (f *Frame) BodyLen() int { return len(f.Payload) + int(f.ZeroTail) }

// Corrupt flips every bit of body octet i (0 <= i < BodyLen()), the
// link model's corruption. An octet in the zero tail exists only once
// it differs from zero, so the tail is stored first.
func (f *Frame) Corrupt(i int) {
	if i >= len(f.Payload) {
		n := len(f.Payload)
		f.Payload = slices.Grow(f.Payload, int(f.ZeroTail))[:n+int(f.ZeroTail)]
		clear(f.Payload[n:])
		f.ZeroTail = 0
	}
	f.Payload[i] ^= 0xff
}

// Clone returns a deep copy of the frame, including metadata and the
// zero tail. Switching elements clone before mirroring so downstream
// mutation cannot alias.
func (f *Frame) Clone() *Frame {
	g := *f
	g.detach()
	g.Payload = make([]byte, len(f.Payload))
	copy(g.Payload, f.Payload)
	if f.INT != nil {
		// The copy's hops get storage of their own, with room for
		// MaxHops records so later transits stamp it in place.
		s := *f.INT
		s.Hops = append(make([]INTHop, 0, max(s.MaxHops, len(s.Hops))), s.Hops...)
		g.INT = &s
	}
	return &g
}

// detach clears what a whole-frame copy must not inherit from its
// source: the free-list mark and the FIFO link. UnmarshalInto needs no
// call, since it builds its result from a zero Frame.
func (f *Frame) detach() { f.pooled, f.queued, f.next = false, false, nil }

// EffectivePriority returns the scheduling priority: the PCP when tagged,
// else best effort.
func (f *Frame) EffectivePriority() PCP {
	if f.Tagged {
		return f.Priority
	}
	return PrioBestEffort
}

// String renders a compact one-line description.
func (f *Frame) String() string {
	tag := ""
	if f.Tagged {
		tag = fmt.Sprintf(" vlan=%d pcp=%d", f.VID, f.Priority)
	}
	return fmt.Sprintf("%s->%s type=0x%04x%s len=%d", f.Src, f.Dst, uint16(f.Type), tag, f.WireLen())
}
