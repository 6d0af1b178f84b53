package frame

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"steelnet/internal/checkpoint"
)

func TestMACConstruction(t *testing.T) {
	m := NewMAC(0x01020304)
	if m.String() != "02:5e:01:02:03:04" {
		t.Fatalf("MAC = %s", m)
	}
	if m.IsBroadcast() || m.IsMulticast() {
		t.Fatal("unicast MAC misclassified")
	}
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Fatal("broadcast MAC misclassified")
	}
}

func TestMarshalRoundTripUntagged(t *testing.T) {
	f := &Frame{
		Dst:     NewMAC(1),
		Src:     NewMAC(2),
		Type:    TypeProfinet,
		Payload: []byte{1, 2, 3, 4},
	}
	wire := f.Marshal()
	if len(wire) != 18 {
		t.Fatalf("wire len = %d", len(wire))
	}
	g, err := unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type {
		t.Fatalf("roundtrip header mismatch: %+v vs %+v", g, f)
	}
	if !bytes.Equal(g.Payload, f.Payload) {
		t.Fatal("payload mismatch")
	}
	if g.Tagged {
		t.Fatal("untagged frame parsed as tagged")
	}
}

func TestMarshalRoundTripTagged(t *testing.T) {
	f := &Frame{
		Dst:      NewMAC(1),
		Src:      NewMAC(2),
		Tagged:   true,
		Priority: PrioRT,
		VID:      100,
		Type:     TypeBenchEcho,
		Payload:  []byte{9, 9},
	}
	g, err := unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Tagged || g.Priority != PrioRT || g.VID != 100 || g.Type != TypeBenchEcho {
		t.Fatalf("tagged roundtrip = %+v", g)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := unmarshal(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
	// Claims VLAN but too short for the tag.
	buf := make([]byte, 14)
	buf[12], buf[13] = 0x81, 0x00
	if _, err := unmarshal(buf); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

// TestIntoFormsReuseStorage: MarshalInto encodes into the caller's
// buffer when it is large enough (and only then), and UnmarshalInto
// replaces every field of the target — descriptor metadata and INT
// included — but leaves it untouched on error.
func TestIntoFormsReuseStorage(t *testing.T) {
	f := &Frame{Dst: NewMAC(2), Src: NewMAC(1), Tagged: true, Priority: PrioRT, VID: 10,
		Type: TypeProfinet, Payload: []byte{1, 2, 3, 4}}
	want := f.Marshal()
	buf := make([]byte, 3, 64)
	got := f.MarshalInto(buf)
	if !bytes.Equal(got, want) || &got[0] != &buf[0] {
		t.Fatalf("MarshalInto = % x (reused=%t), want % x in the caller's buffer", got, &got[0] == &buf[0], want)
	}
	if small := f.MarshalInto(make([]byte, 0, 4)); !bytes.Equal(small, want) {
		t.Fatalf("MarshalInto with a short buffer = % x", small)
	}
	if n := testing.AllocsPerRun(100, func() { got = f.MarshalInto(got) }); n != 0 {
		t.Fatalf("MarshalInto into its own result allocates %.0f times", n)
	}

	g := Frame{Meta: Meta{FlowID: 9, CreatedAt: 5, TraceID: 3}, Payload: []byte{9}}
	g.AttachINT("src", 1, 1, 0, 0)
	if err := UnmarshalInto(&g, want); err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || !g.Tagged || g.Priority != PrioRT || g.VID != 10 ||
		g.Type != TypeProfinet || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("UnmarshalInto = %+v", g)
	}
	if g.Meta != (Meta{}) || g.INT != nil {
		t.Fatalf("descriptor state survived the wire: meta %+v int %v", g.Meta, g.INT)
	}
	before := g
	if err := UnmarshalInto(&g, want[:13]); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
	if g.Dst != before.Dst || g.Type != before.Type || len(g.Payload) != len(before.Payload) {
		t.Fatalf("failed UnmarshalInto modified its target: %+v", g)
	}
}

func TestVIDMaskedTo12Bits(t *testing.T) {
	f := &Frame{Tagged: true, VID: 0xffff, Priority: 7, Type: TypeIPv4}
	g, err := unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.VID != 0x0fff {
		t.Fatalf("VID = %#x", g.VID)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(dst, src uint32, tagged bool, pcp uint8, vid uint16, payload []byte) bool {
		in := &Frame{
			Dst: NewMAC(dst), Src: NewMAC(src),
			Tagged: tagged, Priority: PCP(pcp & 7), VID: vid & 0x0fff,
			Type: TypeMLData, Payload: payload,
		}
		out, err := unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		return out.Dst == in.Dst && out.Src == in.Src &&
			out.Tagged == in.Tagged &&
			(!tagged || (out.Priority == in.Priority && out.VID == in.VID)) &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := &Frame{Payload: []byte{1, 2, 3}, Meta: Meta{FlowID: 7}}
	g := f.Clone()
	g.Payload[0] = 99
	if f.Payload[0] != 1 {
		t.Fatal("clone aliases payload")
	}
	if g.Meta.FlowID != 7 {
		t.Fatal("clone lost metadata")
	}
}

func TestEffectivePriority(t *testing.T) {
	f := &Frame{Tagged: false, Priority: PrioRT}
	if f.EffectivePriority() != PrioBestEffort {
		t.Fatal("untagged frame has non-default priority")
	}
	f.Tagged = true
	if f.EffectivePriority() != PrioRT {
		t.Fatal("tagged priority lost")
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Dst: NewMAC(1), Src: NewMAC(2), Tagged: true, VID: 5, Type: TypeProfinet}
	if s := f.String(); !strings.Contains(s, "vlan=5") || !strings.Contains(s, "0x8892") {
		t.Fatalf("String = %q", s)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := Probe{Seq: 42, FlowID: 7, TS1: 1111, TS2: 2222, Padding: []byte{0xaa}}
	buf := make([]byte, 32)
	if err := MarshalProbeInto(p, buf); err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalProbe(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Seq != 42 || q.FlowID != 7 || q.TS1 != 1111 || q.TS2 != 2222 {
		t.Fatalf("roundtrip = %+v", q)
	}
	if q.Padding[0] != 0xaa {
		t.Fatal("padding lost")
	}
}

func TestProbeMinimumSize(t *testing.T) {
	if err := MarshalProbeInto(Probe{}, make([]byte, 20)); err != ErrProbeTooShort {
		t.Fatalf("20-byte probe err = %v (fixed fields need 24)", err)
	}
	if _, err := UnmarshalProbe(make([]byte, 10)); err != ErrProbeTooShort {
		t.Fatalf("err = %v", err)
	}
}

func TestProbeTimestampOffsetsMatchEncoding(t *testing.T) {
	p := Probe{TS1: 0x1122334455667788, TS2: 0x99aabbccddeeff00}
	buf := make([]byte, 24)
	if err := MarshalProbeInto(p, buf); err != nil {
		t.Fatal(err)
	}
	o1, o2 := ProbeTimestampOffsets()
	if buf[o1] != 0x11 || buf[o2] != 0x99 {
		t.Fatalf("offsets wrong: buf[%d]=%#x buf[%d]=%#x", o1, buf[o1], o2, buf[o2])
	}
}

func TestWireLen(t *testing.T) {
	f := &Frame{Payload: make([]byte, 50)}
	if f.WireLen() != 64 {
		t.Fatalf("untagged WireLen = %d", f.WireLen())
	}
	f.Tagged = true
	if f.WireLen() != 68 {
		t.Fatalf("tagged WireLen = %d", f.WireLen())
	}
}

func TestUnmarshalArbitraryBytesNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		fr, err := unmarshal(raw)
		if err == nil {
			// A parsed frame re-marshals without panicking too.
			_ = fr.Marshal()
		}
		_, _ = UnmarshalProbe(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReusesFramesAndBuffers(t *testing.T) {
	var p Pool
	f := p.Get(64)
	if len(f.Payload) != 64 {
		t.Fatalf("payload len = %d", len(f.Payload))
	}
	f.Dst = NewMAC(9)
	f.Tagged = true
	f.Meta.FlowID = 7
	buf := &f.Payload[0]
	p.Put(f)
	g := p.Get(32)
	if g != f {
		t.Fatal("pool did not reuse the frame object")
	}
	if &g.Payload[0] != buf {
		t.Fatal("pool did not reuse the payload buffer")
	}
	if g.Tagged || g.Dst != (MAC{}) || g.Meta.FlowID != 0 {
		t.Fatalf("Get returned stale header/meta: %+v", g)
	}
	if len(g.Payload) != 32 {
		t.Fatalf("reused payload len = %d, want 32", len(g.Payload))
	}
	// Growing beyond the recycled capacity reallocates.
	p.Put(g)
	h := p.Get(128)
	if len(h.Payload) != 128 {
		t.Fatalf("grown payload len = %d", len(h.Payload))
	}
	if p.News != 1 || p.Reused != 2 {
		t.Fatalf("News/Reused = %d/%d, want 1/2", p.News, p.Reused)
	}
}

func TestPoolCloneDetaches(t *testing.T) {
	var p Pool
	src := &Frame{Dst: NewMAC(1), Src: NewMAC(2), Tagged: true, Priority: 6, VID: 10,
		Type: TypeProfinet, Payload: []byte{1, 2, 3}, Meta: Meta{FlowID: 42}}
	g := p.Clone(src)
	if g == src {
		t.Fatal("clone aliases source frame")
	}
	if g.Dst != src.Dst || g.Src != src.Src || !g.Tagged || g.Priority != 6 ||
		g.VID != 10 || g.Type != TypeProfinet || g.Meta.FlowID != 42 {
		t.Fatalf("clone fields differ: %+v", g)
	}
	src.Payload[0] = 99
	if g.Payload[0] != 1 {
		t.Fatal("clone payload aliases source")
	}
}

func TestPoolPutNilIsNoop(t *testing.T) {
	var p Pool
	p.Put(nil)
	if f := p.Get(4); f == nil || len(f.Payload) != 4 {
		t.Fatal("pool corrupted by nil Put")
	}
}

// FuzzUnmarshalInto: parsing arbitrary bytes into a frame never panics;
// on error it leaves the frame exactly as it was; on success the frame
// marshals back to the input bytes — header and payload — and is never
// linked into a FIFO, whatever link the target carried before.
func FuzzUnmarshalInto(f *testing.F) {
	untagged := (&Frame{Dst: NewMAC(1), Src: NewMAC(2), Type: TypeProfinet, Payload: []byte{1, 2, 3}}).Marshal()
	tagged := (&Frame{Dst: Broadcast, Src: NewMAC(3), Tagged: true, Priority: PrioRT, VID: 42,
		Type: TypeBenchEcho, Payload: make([]byte, 46)}).Marshal()
	f.Add(untagged)
	f.Add(tagged)
	f.Add(tagged[:18])   // tagged header, empty payload
	f.Add(tagged[:17])   // VLAN tag cut short
	f.Add(untagged[:13]) // one byte short of a header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The target is a struct copy of a queued frame, so it arrives
		// carrying a FIFO link, metadata and an INT stack.
		var q FIFO
		a, b := &Frame{Dst: NewMAC(7), Payload: []byte{9}, Meta: Meta{FlowID: 5}}, &Frame{}
		a.AttachINT("src", 1, 1, 0, 0)
		q.Push(a)
		q.Push(b)
		g := *a
		before := g
		err := UnmarshalInto(&g, data)
		if err != nil {
			if !reflect.DeepEqual(g, before) {
				t.Fatalf("failed UnmarshalInto (%v) changed its target: %+v, was %+v", err, g, before)
			}
			return
		}
		if g.Queued() || g.next != nil || g.pooled || g.INT != nil || g.Meta != (Meta{}) {
			t.Fatalf("UnmarshalInto kept descriptor state: queued=%t next=%p pooled=%t int=%v meta=%+v",
				g.Queued(), g.next, g.pooled, g.INT, g.Meta)
		}
		want := data
		if g.Tagged {
			// The frame model has no drop-eligible bit; it is the one
			// header bit that does not survive the round trip.
			want = append([]byte(nil), data...)
			want[14] &^= 0x10
		}
		if got := g.MarshalInto(nil); !bytes.Equal(got, want) {
			t.Fatalf("MarshalInto = % x, want % x", got, want)
		}
	})
}

// FuzzZeroTail: a frame whose body ends in a zero tail and its twin
// with those zeros stored in Payload are the same frame to everything
// that reads octets — WireLen, MarshalInto into a dirty reused buffer,
// the checkpoint fold, both clone paths (Pool.Clone drawing a recycled
// frame with a dirty payload) — and stay the same after one body octet
// is corrupted, wherever it lies.
func FuzzZeroTail(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(1400), uint32(2), false)
	f.Add([]byte{1, 2, 3}, uint16(1400), uint32(700), true)
	f.Add([]byte{}, uint16(128), uint32(0), false)
	f.Add([]byte{9}, uint16(0), uint32(0), true)
	f.Add([]byte{}, uint16(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, payload []byte, tail uint16, at uint32, tagged bool) {
		build := func() (*Frame, *Frame) {
			// Like a recycled pool buffer, the tailed frame's Payload has
			// dirty capacity past its length for the tail to be stored in.
			spare := bytes.Repeat([]byte{0xee}, len(payload)+int(tail)+8)
			a := &Frame{Dst: NewMAC(1), Src: NewMAC(2), Tagged: tagged, Priority: PrioML, VID: 20,
				Type: TypeMLData, Payload: append(spare[:0], payload...), ZeroTail: uint32(tail), Meta: Meta{FlowID: 3, CreatedAt: 5}}
			b := *a
			b.Payload = append(bytes.Clone(payload), make([]byte, tail)...)
			b.ZeroTail = 0
			return a, &b
		}
		fold := func(f *Frame) uint64 {
			d := checkpoint.NewDigest()
			f.FoldState(d)
			return d.Sum()
		}
		dirty := func() []byte { return bytes.Repeat([]byte{0xa5}, 2*(18+len(payload)+int(tail))) }
		same := func(what string, a, b *Frame) {
			t.Helper()
			if a.WireLen() != b.WireLen() || a.BodyLen() != b.BodyLen() {
				t.Fatalf("%s: WireLen %d / %d, BodyLen %d / %d", what, a.WireLen(), b.WireLen(), a.BodyLen(), b.BodyLen())
			}
			if x, y := a.MarshalInto(dirty()), b.MarshalInto(dirty()); !bytes.Equal(x, y) {
				t.Fatalf("%s: MarshalInto\n% x\n% x", what, x, y)
			}
			if x, y := fold(a), fold(b); x != y {
				t.Fatalf("%s: FoldState %#x / %#x", what, x, y)
			}
		}
		a, b := build()
		same("as built", a, b)
		same("Clone", a.Clone(), b.Clone())
		var p Pool
		for _, n := range []int{len(payload) + int(tail), len(payload)} {
			p.Put(&Frame{Payload: bytes.Repeat([]byte{0x5a}, n), ZeroTail: 7})
		}
		same("Pool.Clone", p.Clone(a), p.Clone(b))
		if n := a.BodyLen(); n > 0 {
			i := int(at % uint32(n))
			a.Corrupt(i)
			b.Corrupt(i)
			same("corrupted", a, b)
			if got := a.MarshalInto(nil)[a.headerLen()+i]; got != b.Payload[i] || got == bodyOctet(payload, i) {
				t.Fatalf("octet %d is %#x after the flip, twin %#x", i, got, b.Payload[i])
			}
		}
	})
}

// bodyOctet is octet i of payload followed by zeros.
func bodyOctet(payload []byte, i int) byte {
	if i < len(payload) {
		return payload[i]
	}
	return 0
}

// unmarshal parses wire bytes into a new frame.
func unmarshal(data []byte) (*Frame, error) {
	f := &Frame{}
	return f, UnmarshalInto(f, data)
}
