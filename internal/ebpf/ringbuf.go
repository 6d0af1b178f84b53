package ebpf

// RingBuf is a single-producer single-consumer byte-record ring buffer,
// the simulated counterpart of BPF_MAP_TYPE_RINGBUF. Programs emit
// records with the ringbuf_output helper; the userspace side drains with
// Read. When full, outputs are dropped and counted — exactly the failure
// mode that makes §3's TS-RB/TS-D-RB variants interesting.
type RingBuf struct {
	Name     string
	capacity int // max buffered records
	// Buffered records lie back to back in data; ends[i] is where record
	// i stops and ends[head] belongs to the oldest one still unread. One
	// growing arena instead of a slice per record keeps ringbuf_output
	// off the allocator once the arena has reached its working size.
	data []byte
	ends []int
	head int
	// Produced, Consumed and Dropped count records through the buffer.
	Produced, Consumed, Dropped uint64
}

// NewRingBuf creates a ring buffer holding at most capacity records.
func NewRingBuf(name string, capacity int) *RingBuf {
	if capacity <= 0 {
		panic("ebpf: non-positive ring buffer capacity")
	}
	return &RingBuf{Name: name, capacity: capacity}
}

// Output appends a record (copied). It returns false and drops when full.
func (r *RingBuf) Output(rec []byte) bool {
	if r.Len() >= r.capacity {
		r.Dropped++
		return false
	}
	if r.head > 0 && len(r.ends) == cap(r.ends) {
		// Slide the unread records over the consumed front before growing.
		start := r.ends[r.head-1]
		n := copy(r.data, r.data[start:])
		r.data = r.data[:n]
		for i, end := range r.ends[r.head:] {
			r.ends[i] = end - start
		}
		r.ends = r.ends[:len(r.ends)-r.head]
		r.head = 0
	}
	r.data = append(r.data, rec...)
	r.ends = append(r.ends, len(r.data))
	r.Produced++
	return true
}

// record returns buffered record i (0 = oldest unread).
func (r *RingBuf) record(i int) []byte {
	start := 0
	if k := r.head + i; k > 0 {
		start = r.ends[k-1]
	}
	return r.data[start:r.ends[r.head+i]]
}

// Read pops the oldest record, or nil when empty. The bytes stay valid
// until the next Output.
func (r *RingBuf) Read() []byte {
	if r.Len() == 0 {
		return nil
	}
	rec := r.record(0)
	r.Consumed++
	if r.head++; r.head == len(r.ends) {
		r.data, r.ends, r.head = r.data[:0], r.ends[:0], 0
	}
	return rec
}

// Len returns the number of buffered records.
func (r *RingBuf) Len() int { return len(r.ends) - r.head }
