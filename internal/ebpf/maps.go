package ebpf

import "fmt"

// MapKind distinguishes map implementations.
type MapKind int

// Map kinds.
const (
	MapArray MapKind = iota
	MapHash
)

// Map is a uint64→uint64 store shared between eBPF programs and their
// userspace owner, a simplified take on BPF array/hash maps.
type Map struct {
	Kind    MapKind
	Name    string
	MaxSize int
	arr     []uint64
	hash    map[uint64]uint64
	// Lookups and Updates count helper traffic for cost accounting.
	Lookups, Updates uint64
}

// NewArrayMap creates an array map with size slots (keys 0..size-1).
func NewArrayMap(name string, size int) *Map {
	if size <= 0 {
		panic("ebpf: non-positive array map size")
	}
	return &Map{Kind: MapArray, Name: name, MaxSize: size, arr: make([]uint64, size)}
}

// NewHashMap creates a hash map bounded at maxEntries.
func NewHashMap(name string, maxEntries int) *Map {
	if maxEntries <= 0 {
		panic("ebpf: non-positive hash map size")
	}
	return &Map{Kind: MapHash, Name: name, MaxSize: maxEntries, hash: make(map[uint64]uint64, maxEntries)}
}

// Lookup returns the value for key and whether it exists. Array lookups
// outside the range miss.
func (m *Map) Lookup(key uint64) (uint64, bool) {
	m.Lookups++
	switch m.Kind {
	case MapArray:
		if key >= uint64(m.MaxSize) {
			return 0, false
		}
		return m.arr[key], true
	default:
		v, ok := m.hash[key]
		return v, ok
	}
}

// Update sets key to value. It returns false when the key is out of
// range (array) or the map is full (hash).
func (m *Map) Update(key, value uint64) bool {
	m.Updates++
	switch m.Kind {
	case MapArray:
		if key >= uint64(m.MaxSize) {
			return false
		}
		m.arr[key] = value
		return true
	default:
		if _, ok := m.hash[key]; !ok && len(m.hash) >= m.MaxSize {
			return false
		}
		m.hash[key] = value
		return true
	}
}

// Len returns the number of live entries.
func (m *Map) Len() int {
	if m.Kind == MapArray {
		return m.MaxSize
	}
	return len(m.hash)
}

// String identifies the map.
func (m *Map) String() string {
	kind := "array"
	if m.Kind == MapHash {
		kind = "hash"
	}
	return fmt.Sprintf("map(%s,%s,%d)", m.Name, kind, m.MaxSize)
}

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
