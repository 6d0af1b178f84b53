package mlwork

import (
	"encoding/binary"
	"errors"

	"steelnet/internal/frame"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// MTU is the per-packet payload budget for fragmented frames.
const MTU = 1400

// header is the fragment header prepended to every ML data packet.
//
//	clientID(4) reqID(4) fragIdx(2) fragCount(2) kind(1)
const headerLen = 13

// Packet kinds.
const (
	kindRequest  = 1
	kindResponse = 2
)

// ErrShortPacket reports an undecodable ML payload.
var ErrShortPacket = errors.New("mlwork: short packet")

type header struct {
	ClientID  uint32
	ReqID     uint32
	FragIdx   uint16
	FragCount uint16
	Kind      uint8
}

// putHeader writes h into the first headerLen bytes of buf. Fragments
// and responses store nothing else: their bodies carry no information,
// so they ride as the frame's zero tail.
func putHeader(buf []byte, h header) {
	binary.BigEndian.PutUint32(buf[0:], h.ClientID)
	binary.BigEndian.PutUint32(buf[4:], h.ReqID)
	binary.BigEndian.PutUint16(buf[8:], h.FragIdx)
	binary.BigEndian.PutUint16(buf[10:], h.FragCount)
	buf[12] = h.Kind
}

func unmarshalHeader(b []byte) (header, error) {
	if len(b) < headerLen {
		return header{}, ErrShortPacket
	}
	return header{
		ClientID:  binary.BigEndian.Uint32(b[0:]),
		ReqID:     binary.BigEndian.Uint32(b[4:]),
		FragIdx:   binary.BigEndian.Uint16(b[8:]),
		FragCount: binary.BigEndian.Uint16(b[10:]),
		Kind:      b[12],
	}, nil
}

// Server is an inference endpoint: it reassembles request frames,
// serves them through a single-worker FIFO compute queue (constrained
// edge/fog compute, per §5), and returns results.
type Server struct {
	host    *simnet.Host
	engine  *sim.Engine
	profile Profile
	queue   int
	busy    bool
	parts   map[uint64]uint16 // (client,req) -> fragments seen
	free    *job

	// Served counts completed inferences; MaxQueue the worst backlog.
	Served   uint64
	MaxQueue int
}

// AttachServer binds server logic onto an existing host (e.g. one
// instantiated by simnet.Build from a topology graph).
func AttachServer(e *sim.Engine, h *simnet.Host, p Profile) *Server {
	s := &Server{
		host:    h,
		engine:  e,
		profile: p,
		parts:   make(map[uint64]uint16),
	}
	s.host.OnReceive(s.onFrame)
	return s
}

// Host returns the underlying host for wiring.
func (s *Server) Host() *simnet.Host { return s.host }

// UsePool replaces the server's frame pool, letting several endpoints
// in one experiment cell share a free list. Client fragments otherwise
// migrate permanently into the server's pool, leaving the client to
// allocate a fresh payload per fragment. Drops at the host's port and
// its INT stacks return to p too (see simnet.Host.UsePool).
func (s *Server) UsePool(p *frame.Pool) { s.host.UsePool(p) }

func key(clientID, reqID uint32) uint64 { return uint64(clientID)<<32 | uint64(reqID) }

func (s *Server) onFrame(f *frame.Frame) {
	if f.Type != frame.TypeMLData {
		return
	}
	h, err := unmarshalHeader(f.Payload)
	src := f.Src
	// The handler is the frame's terminal consumer: once the header is
	// decoded the fragment is dead, so recycle it into the response pool.
	s.host.Pool().Put(f)
	if err != nil || h.Kind != kindRequest {
		return
	}
	k := key(h.ClientID, h.ReqID)
	s.parts[k]++
	if s.parts[k] < h.FragCount {
		return
	}
	delete(s.parts, k)
	// Whole frame received: queue the inference.
	s.queue++
	if s.queue > s.MaxQueue {
		s.MaxQueue = s.queue
	}
	j := s.getJob()
	j.dst, j.h = src, h
	s.serve(j)
}

// job carries one whole request through the server: the busy retries,
// then the inference that answers it. It is the handler of a retry
// and, as doneEv, of the inference's end, and recycles through the
// server's free list, so serving a request allocates nothing in steady
// state.
type job struct {
	s    *Server
	dst  frame.MAC
	h    header
	next *job
}

type doneEv job

func (j *job) Fire()    { j.s.serve(j) }
func (e *doneEv) Fire() { e.s.respond((*job)(e)) }

func (s *Server) getJob() *job {
	j := s.free
	if j == nil {
		j = &job{s: s}
	} else {
		s.free = j.next
		j.next = nil
	}
	return j
}

func (s *Server) serve(j *job) {
	if s.busy {
		// FIFO via timestamp-ordered events: re-check shortly. A real
		// server would use a queue; the simulation's single-worker
		// semantics are identical because events are ordered.
		s.engine.After(50*sim.Microsecond, j)
		return
	}
	s.busy = true
	s.engine.After(s.profile.InferCPU, (*doneEv)(j))
}

// respond completes j's inference, recycles the job and sends the
// result.
func (s *Server) respond(j *job) {
	dst, h := j.dst, j.h
	j.next = s.free
	s.free = j
	s.busy = false
	s.queue--
	s.Served++
	f := s.host.Pool().Get(headerLen)
	f.ZeroTail = uint32(s.profile.ResultBytes)
	putHeader(f.Payload, header{
		ClientID: h.ClientID, ReqID: h.ReqID, FragIdx: 0, FragCount: 1, Kind: kindResponse,
	})
	f.Dst = dst
	f.Tagged = true
	f.Priority = frame.PrioML
	f.VID = 20
	f.Type = frame.TypeMLData
	if !s.host.Send(f) {
		s.host.Pool().Put(f) // egress drop: the frame never entered the network
	}
}

// Client is a periodic inference source bound to one server.
type Client struct {
	id      uint32
	host    *simnet.Host
	engine  *sim.Engine
	profile Profile
	deg     Degradation
	server  frame.MAC
	nextReq uint32
	sentAt  map[uint32]sim.Time
	ticker  *sim.Ticker

	// Latencies collects request->response times in milliseconds. It
	// starts empty: a Fig. 6 client records ten samples or so.
	Latencies *metrics.Series
	// Completed and Missed count responses and deadline violations.
	Completed, Missed uint64
}

// AttachClient binds client logic onto an existing host.
func AttachClient(e *sim.Engine, h *simnet.Host, id uint32, server frame.MAC, p Profile, deg Degradation) *Client {
	c := &Client{
		id:        id,
		host:      h,
		engine:    e,
		profile:   p,
		deg:       deg,
		server:    server,
		sentAt:    make(map[uint32]sim.Time),
		Latencies: new(metrics.Series),
	}
	c.host.OnReceive(c.onFrame)
	return c
}

// Host returns the underlying host for wiring.
func (c *Client) Host() *simnet.Host { return c.host }

// UsePool replaces the client's frame pool (see Server.UsePool).
func (c *Client) UsePool(p *frame.Pool) { c.host.UsePool(p) }

// Start begins periodic requests at start (absolute virtual time).
func (c *Client) Start(start sim.Time) {
	c.ticker = c.engine.Every(start, c.profile.Period, (*sendEv)(c))
}

// sendEv is a client as the handler of its request ticks.
type sendEv Client

func (e *sendEv) Fire() {
	c := (*Client)(e)
	reqID := c.nextReq
	c.nextReq++
	c.sentAt[reqID] = c.engine.Now()
	size := c.profile.WireBytes(c.deg)
	frags := (size + MTU - 1) / MTU
	if frags > 0xffff {
		frags = 0xffff
	}
	for i := 0; i < frags; i++ {
		n := MTU
		if i == frags-1 {
			n = size - (frags-1)*MTU
		}
		f := c.host.Pool().Get(headerLen)
		f.ZeroTail = uint32(n)
		putHeader(f.Payload, header{
			ClientID: c.id, ReqID: reqID,
			FragIdx: uint16(i), FragCount: uint16(frags), Kind: kindRequest,
		})
		f.Dst = c.server
		f.Tagged = true
		f.Priority = frame.PrioML
		f.VID = 20
		f.Type = frame.TypeMLData
		f.Meta = frame.Meta{FlowID: c.id}
		if !c.host.Send(f) {
			c.host.Pool().Put(f) // egress drop: safe to recycle immediately
		}
	}
}

func (c *Client) onFrame(f *frame.Frame) {
	if f.Type != frame.TypeMLData {
		return
	}
	h, err := unmarshalHeader(f.Payload)
	// Terminal consumer: recycle the response into the fragment pool.
	c.host.Pool().Put(f)
	if err != nil || h.Kind != kindResponse || h.ClientID != c.id {
		return
	}
	start, ok := c.sentAt[h.ReqID]
	if !ok {
		return
	}
	delete(c.sentAt, h.ReqID)
	lat := c.engine.Now().Sub(start)
	c.Latencies.Add(lat.Seconds() * 1e3)
	c.Completed++
	if lat > c.profile.Deadline {
		c.Missed++
	}
}

// LossRate returns the fraction of issued requests with no response.
func (c *Client) LossRate() float64 {
	if c.nextReq == 0 {
		return 0
	}
	return float64(len(c.sentAt)) / float64(c.nextReq)
}
