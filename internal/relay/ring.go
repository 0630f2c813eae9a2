package relay

// pendingRing buffers datagrams addressed to a session site whose transport
// address is not yet known (the peer has a token but has not sent its first
// datagram). It is the relay-side sibling of the PR 1 bounded input rings:
// fixed slot count, an explicit byte budget, and drop-oldest eviction — a
// lockstep stream supersedes its own history, so when the budget is hit the
// freshest datagrams win.
//
// Slots own pooled MaxDatagram buffers, acquired on first use and returned
// on free(), so a session's worst-case memory is slots*MaxDatagram plus the
// struct itself, and the steady state allocates nothing.
type pendingRing struct {
	slots       [][]byte
	lens        []int
	head, count int
	bytes       int // sum of lens over the queued window
}

// pendingSlots and pendingBytes bound each session site's pending ring.
const (
	pendingSlots = 8
	pendingBytes = 16 << 10
)

func newPendingRing() *pendingRing {
	return &pendingRing{
		slots: make([][]byte, pendingSlots),
		lens:  make([]int, pendingSlots),
	}
}

// push copies p into the ring, evicting oldest entries while either bound
// (slot count or byte budget) is exceeded. It reports how many datagrams
// were evicted.
func (r *pendingRing) push(p []byte) int {
	if len(p) > MaxDatagram {
		return 1
	}
	evicted := 0
	for r.count > 0 && (r.count == len(r.slots) || r.bytes+len(p) > pendingBytes) {
		r.bytes -= r.lens[r.head]
		r.head = (r.head + 1) % len(r.slots)
		r.count--
		evicted++
	}
	if r.bytes+len(p) > pendingBytes {
		// Budget smaller than this single datagram.
		return evicted + 1
	}
	i := (r.head + r.count) % len(r.slots)
	if r.slots[i] == nil {
		r.slots[i] = getBuf()
	}
	r.slots[i] = append(r.slots[i][:0], p...)
	r.lens[i] = len(p)
	r.bytes += len(p)
	r.count++
	return evicted
}

// drain invokes fn for each queued datagram, oldest first, and empties the
// ring. The slice passed to fn borrows the ring's slot buffer; fn must not
// retain it past its return.
func (r *pendingRing) drain(fn func(p []byte)) {
	for r.count > 0 {
		i := r.head
		fn(r.slots[i][:r.lens[i]])
		r.head = (r.head + 1) % len(r.slots)
		r.count--
	}
	r.bytes = 0
	r.head = 0
}

// free returns every slot buffer to the pool.
func (r *pendingRing) free() {
	for i, b := range r.slots {
		if b != nil {
			putBuf(b)
			r.slots[i] = nil
		}
	}
	r.count, r.bytes, r.head = 0, 0, 0
}
