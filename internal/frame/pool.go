package frame

// Pool is a free list of Frame objects, their payload buffers and their
// INT stacks for allocation-free transmit paths: a sender Gets a frame
// per packet, and whichever endpoint consumes the frame Puts it back
// once its handler is done with it. Frames need not return to the pool
// they came from — any engine-local pool works as a free list, so
// request frames recycled by a server naturally become its response
// frames.
//
// A telemetry stack lives and dies with its frame: a source attaches
// one with AttachINT, a sink detaches it with StripINT once the
// collector has folded it, and Put recycles a stack its frame still
// carries (a frame the network destroyed mid-path). A recycled stack
// goes through the initialization a new one gets, so it is byte-for-byte
// what Frame.AttachINT builds — checkpoint digests fold stack contents
// only and cannot tell the difference.
//
// A Pool is not safe for concurrent use. Each simulation engine runs on
// one goroutine (see internal/sweep), so pools must not be shared across
// scenario cells.
type Pool struct {
	free   []*Frame
	stacks []*INTStack

	// News counts frames allocated because the pool was empty; Reused
	// counts frames served from the free list; Puts counts returns.
	News, Reused, Puts uint64
	// StackNews, StackReused and StackPuts count INT stacks the same way.
	StackNews, StackReused, StackPuts uint64

	// put is Put as a func value, made once (see PutFunc).
	put func(*Frame)
}

// PutFunc returns Put as a func value, the one every drop hook and
// receive handler that releases to p shares: a method value made per
// port or host would cost each an allocation.
func (p *Pool) PutFunc() func(*Frame) {
	if p.put == nil {
		p.put = p.Put
	}
	return p.put
}

// Outstanding returns frames handed out and not yet returned. Across a
// set of pools whose frames migrate between them, the sum is the number
// of frames alive in the network — zero once a drained simulation has
// reclaimed every drop (the chaos suite's no-leak invariant).
func (p *Pool) Outstanding() int64 {
	return int64(p.News+p.Reused) - int64(p.Puts)
}

// StacksOutstanding is Outstanding for INT stacks: attached through the
// pool and not yet stripped or returned with their frame.
func (p *Pool) StacksOutstanding() int64 {
	return int64(p.StackNews+p.StackReused) - int64(p.StackPuts)
}

// Get returns a frame whose Payload has length n. All header fields, the
// zero tail and metadata are zeroed. Payload bytes are NOT zeroed on reuse: callers
// must write every byte they expect a receiver to read, exactly as with
// a recycled DMA buffer.
func (p *Pool) Get(n int) *Frame {
	if k := len(p.free) - 1; k >= 0 {
		f := p.free[k]
		p.free[k] = nil
		p.free = p.free[:k]
		pl := f.Payload
		*f = Frame{}
		if cap(pl) < n {
			pl = make([]byte, n)
		}
		f.Payload = pl[:n]
		p.Reused++
		return f
	}
	p.News++
	return &Frame{Payload: make([]byte, n)}
}

// Clone returns a pooled deep copy of f — the pooled counterpart of
// Frame.Clone for transmit paths that re-emit a received frame.
func (p *Pool) Clone(f *Frame) *Frame {
	g := p.Get(len(f.Payload))
	pl := g.Payload
	*g = *f
	g.detach()
	g.Payload = pl
	copy(g.Payload, f.Payload)
	if src := f.INT; src != nil {
		// The struct copy aliased f's stack; g gets one of its own with
		// room for MaxHops records, as Frame.Clone leaves, so later
		// transits stamp the copy in place.
		g.INT = nil
		s := p.AttachINT(g, src.Source, src.FlowID, src.Seq, src.SourceNS, src.MaxHops)
		s.Strict = src.Strict
		s.Hops = append(s.Hops, src.Hops...)
	}
	return g
}

// AttachINT is Frame.AttachINT on a stack off the free list, allocating
// one only when the list is empty; a stack f already carries is
// recycled first.
func (p *Pool) AttachINT(f *Frame, source string, flow, seq uint32, nowNS int64, maxHops int) *INTStack {
	p.StripINT(f)
	k := len(p.stacks) - 1
	if k < 0 {
		p.StackNews++
		return f.AttachINT(source, flow, seq, nowNS, maxHops)
	}
	s := p.stacks[k]
	p.stacks[k] = nil
	p.stacks = p.stacks[:k]
	p.StackReused++
	return f.attachINT(s, source, flow, seq, nowNS, maxHops)
}

// StripINT detaches f's INT stack, if it carries one, and recycles it —
// what a sink does once the collector has read the stack, and what ends
// telemetry wherever a frame leaves the data plane. Nothing may hold on
// to the stack or its Hops afterwards.
func (p *Pool) StripINT(f *Frame) {
	if s := f.INT; s != nil {
		f.INT = nil
		p.StackPuts++
		p.stacks = append(p.stacks, s)
	}
}

// Put returns f, and the INT stack it may still carry, to the pool. The
// caller must not touch f afterwards; the next Get may hand it out
// again. Putting nil is a no-op; putting a frame that is already on a
// free list panics — a double release means two owners believe they
// hold the frame, and the next two Gets would hand out aliases of one
// buffer. Putting a frame that still sits in a FIFO panics for the same
// reason: the queue is its owner until it pops the frame.
func (p *Pool) Put(f *Frame) {
	if f == nil {
		return
	}
	if f.pooled {
		panic("frame: double release to pool")
	}
	if f.Queued() {
		panic("frame: release of a frame still queued")
	}
	p.StripINT(f)
	f.pooled = true
	p.Puts++
	p.free = append(p.free, f)
}
