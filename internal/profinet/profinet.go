// Package profinet implements a PROFINET-RT-flavoured cyclic industrial
// protocol: a connect handshake that establishes a communication
// relationship (CR) fixing cycle time, payload lengths and a watchdog
// factor; cyclic IO data frames with cycle counters and a data-status
// byte; and watchdog bookkeeping that halts a device for safety when no
// valid data arrives for the configured number of consecutive cycles —
// the "watchdog counter expiration" behaviour §2.1 cites from PROFINET
// [14]. InstaPLC (§4) parses exactly these messages to build its digital
// twin, and Fig. 5's traffic is CR cyclic data at a 1.6 ms cycle.
package profinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"steelnet/internal/frame"
)

// FrameID selects the message type, mirroring PROFINET's frame-id ranges.
type FrameID uint16

// Frame ids.
const (
	// FrameIDCyclic marks RT class-1 cyclic IO data.
	FrameIDCyclic FrameID = 0x8000
	// FrameIDConnectReq/Resp carry the CR establishment handshake.
	FrameIDConnectReq  FrameID = 0xfe01
	FrameIDConnectResp FrameID = 0xfe02
	// FrameIDRelease tears a CR down.
	FrameIDRelease FrameID = 0xfe03
	// FrameIDAlarm carries acyclic alarm notifications.
	FrameIDAlarm FrameID = 0xfc01
	// FrameIDDCPIdentify/IdentifyResp implement name-based discovery.
	FrameIDDCPIdentify     FrameID = 0xfefe
	FrameIDDCPIdentifyResp FrameID = 0xfeff
)

// DataStatus flag bits of cyclic frames.
const (
	// StatusRun indicates the producer is in RUN (vs STOP).
	StatusRun uint8 = 1 << 0
	// StatusValid indicates the IO data is valid.
	StatusValid uint8 = 1 << 2
	// StatusPrimary indicates the producer holds the primary role of a
	// redundant pair (extension used by the HA experiments).
	StatusPrimary uint8 = 1 << 5
)

// Errors.
var (
	ErrTruncated = errors.New("profinet: truncated message")
	ErrFrameID   = errors.New("profinet: unexpected frame id")
)

// NewFrame takes a frame for dst with an n-byte payload from pool,
// tagged the way every station sends PROFINET RT: VLAN 10 at the
// real-time priority. The payload bytes are the caller's to fill.
func NewFrame(pool *frame.Pool, dst frame.MAC, n int) *frame.Frame {
	f := pool.Get(n)
	f.Dst = dst
	f.Tagged = true
	f.Priority = frame.PrioRT
	f.VID = 10
	f.Type = frame.TypeProfinet
	return f
}

// PeekFrameID reads the frame id without decoding the full message.
func PeekFrameID(payload []byte) (FrameID, error) {
	if len(payload) < 2 {
		return 0, ErrTruncated
	}
	return FrameID(binary.BigEndian.Uint16(payload)), nil
}

// ConnectRequest opens a communication relationship. CycleUS is the IO
// cycle in microseconds; WatchdogFactor is the number of consecutive
// missed cycles after which either side declares the peer dead.
type ConnectRequest struct {
	ARID           uint32
	CycleUS        uint32
	WatchdogFactor uint16
	InputLen       uint16 // device -> controller payload bytes
	OutputLen      uint16 // controller -> device payload bytes
}

// Cycle returns the IO cycle as a duration.
func (c ConnectRequest) Cycle() time.Duration { return time.Duration(c.CycleUS) * time.Microsecond }

// Watchdog returns the watchdog timeout (factor × cycle).
func (c ConnectRequest) Watchdog() time.Duration {
	return time.Duration(c.WatchdogFactor) * c.Cycle()
}

// Marshal encodes the request.
func (c ConnectRequest) Marshal() []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint16(b[0:], uint16(FrameIDConnectReq))
	binary.BigEndian.PutUint32(b[2:], c.ARID)
	binary.BigEndian.PutUint32(b[6:], c.CycleUS)
	binary.BigEndian.PutUint16(b[10:], c.WatchdogFactor)
	binary.BigEndian.PutUint16(b[12:], c.InputLen)
	binary.BigEndian.PutUint16(b[14:], c.OutputLen)
	return b
}

// UnmarshalConnectRequest decodes a connect request.
func UnmarshalConnectRequest(b []byte) (ConnectRequest, error) {
	if len(b) < 16 {
		return ConnectRequest{}, ErrTruncated
	}
	if FrameID(binary.BigEndian.Uint16(b)) != FrameIDConnectReq {
		return ConnectRequest{}, ErrFrameID
	}
	return ConnectRequest{
		ARID:           binary.BigEndian.Uint32(b[2:]),
		CycleUS:        binary.BigEndian.Uint32(b[6:]),
		WatchdogFactor: binary.BigEndian.Uint16(b[10:]),
		InputLen:       binary.BigEndian.Uint16(b[12:]),
		OutputLen:      binary.BigEndian.Uint16(b[14:]),
	}, nil
}

// ConnectResponse answers a request.
type ConnectResponse struct {
	ARID     uint32
	Accepted bool
	Reason   uint8 // nonzero on rejection
}

// Rejection reasons.
const (
	ReasonNone          uint8 = 0
	ReasonBusy          uint8 = 1 // device already controlled
	ReasonBadParameters uint8 = 2
)

// Marshal encodes the response.
func (c ConnectResponse) Marshal() []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint16(b[0:], uint16(FrameIDConnectResp))
	binary.BigEndian.PutUint32(b[2:], c.ARID)
	if c.Accepted {
		b[6] = 1
	}
	b[7] = c.Reason
	return b
}

// UnmarshalConnectResponse decodes a connect response.
func UnmarshalConnectResponse(b []byte) (ConnectResponse, error) {
	if len(b) < 8 {
		return ConnectResponse{}, ErrTruncated
	}
	if FrameID(binary.BigEndian.Uint16(b)) != FrameIDConnectResp {
		return ConnectResponse{}, ErrFrameID
	}
	return ConnectResponse{
		ARID:     binary.BigEndian.Uint32(b[2:]),
		Accepted: b[6] == 1,
		Reason:   b[7],
	}, nil
}

// CyclicData is one RT IO data frame. Real PROFINET identifies cyclic
// frames by (MAC, frame id) alone; the ARID is carried here so that
// in-network applications (InstaPLC) can associate frames with CRs
// without tracking MAC state.
type CyclicData struct {
	ARID         uint32
	CycleCounter uint16
	Status       uint8
	Data         []byte
}

// cyclicHeaderLen is the fixed prefix before the IO data.
const cyclicHeaderLen = 9

// CyclicLen returns the encoded size of a cyclic frame carrying n bytes
// of IO data.
func CyclicLen(n int) int { return cyclicHeaderLen + n }

// Marshal encodes the frame into a new buffer.
func (c CyclicData) Marshal() []byte {
	b := make([]byte, CyclicLen(len(c.Data)))
	c.MarshalInto(b)
	return b
}

// MarshalInto encodes the frame into b, which must hold
// CyclicLen(len(c.Data)) bytes — typically a pooled frame payload, so a
// cyclic sender encodes its process image without an intermediate copy.
func (c CyclicData) MarshalInto(b []byte) {
	binary.BigEndian.PutUint16(b[0:], uint16(FrameIDCyclic))
	binary.BigEndian.PutUint32(b[2:], c.ARID)
	binary.BigEndian.PutUint16(b[6:], c.CycleCounter)
	b[8] = c.Status
	copy(b[cyclicHeaderLen:], c.Data)
}

// UnmarshalCyclicData decodes a cyclic frame. Data aliases b.
func UnmarshalCyclicData(b []byte) (CyclicData, error) {
	if len(b) < cyclicHeaderLen {
		return CyclicData{}, ErrTruncated
	}
	if FrameID(binary.BigEndian.Uint16(b)) != FrameIDCyclic {
		return CyclicData{}, ErrFrameID
	}
	return CyclicData{
		ARID:         binary.BigEndian.Uint32(b[2:]),
		CycleCounter: binary.BigEndian.Uint16(b[6:]),
		Status:       b[8],
		Data:         b[cyclicHeaderLen:],
	}, nil
}

// Run reports whether the producer was in RUN state.
func (c CyclicData) Run() bool { return c.Status&StatusRun != 0 }

// Valid reports whether the IO data is marked valid.
func (c CyclicData) Valid() bool { return c.Status&StatusValid != 0 }

// Alarm is an acyclic notification.
type Alarm struct {
	ARID uint32
	Code uint16
}

// Alarm codes.
const (
	AlarmWatchdogExpired uint16 = 1
	AlarmFailsafe        uint16 = 2
	AlarmReturnOfPeer    uint16 = 3
)

// Marshal encodes the alarm.
func (a Alarm) Marshal() []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint16(b[0:], uint16(FrameIDAlarm))
	binary.BigEndian.PutUint32(b[2:], a.ARID)
	binary.BigEndian.PutUint16(b[6:], a.Code)
	return b
}

// UnmarshalAlarm decodes an alarm.
func UnmarshalAlarm(b []byte) (Alarm, error) {
	if len(b) < 8 {
		return Alarm{}, ErrTruncated
	}
	if FrameID(binary.BigEndian.Uint16(b)) != FrameIDAlarm {
		return Alarm{}, ErrFrameID
	}
	return Alarm{
		ARID: binary.BigEndian.Uint32(b[2:]),
		Code: binary.BigEndian.Uint16(b[6:]),
	}, nil
}

// Release tears down a CR.
type Release struct{ ARID uint32 }

// Marshal encodes the release.
func (r Release) Marshal() []byte {
	b := make([]byte, 6)
	binary.BigEndian.PutUint16(b[0:], uint16(FrameIDRelease))
	binary.BigEndian.PutUint32(b[2:], r.ARID)
	return b
}

// UnmarshalRelease decodes a release.
func UnmarshalRelease(b []byte) (Release, error) {
	if len(b) < 6 {
		return Release{}, ErrTruncated
	}
	if FrameID(binary.BigEndian.Uint16(b)) != FrameIDRelease {
		return Release{}, ErrFrameID
	}
	return Release{ARID: binary.BigEndian.Uint32(b[2:])}, nil
}

// String renders a frame id name.
func (f FrameID) String() string {
	switch f {
	case FrameIDCyclic:
		return "cyclic"
	case FrameIDConnectReq:
		return "connect-req"
	case FrameIDConnectResp:
		return "connect-resp"
	case FrameIDRelease:
		return "release"
	case FrameIDAlarm:
		return "alarm"
	case FrameIDDCPIdentify:
		return "dcp-identify"
	case FrameIDDCPIdentifyResp:
		return "dcp-identify-resp"
	}
	return fmt.Sprintf("frameid(%#04x)", uint16(f))
}
