package capture

import (
	"math"
	"sync"
	"time"
	"unsafe"
)

// rec is the arena's view of one datagram: the payload lives in the shared
// byte buffer, so steady-state recording allocates nothing. It packs into 16
// bytes: a payload is one UDP datagram, so its length fits in 16 bits.
type rec struct {
	at   int64 // ns since the arena's epoch
	off  uint32
	n    uint16
	dir  Dir
	site uint8
}

const (
	// recSize is what one record slot costs, whatever its payload.
	recSize = int(unsafe.Sizeof(rec{}))
	// maxPayload is the largest payload a rec can describe.
	maxPayload = math.MaxUint16
)

// Ref names the payload bytes of one record a Recorder holds, so that a
// later record of the same datagram can share them (Recorder.RecordAgain).
// The zero Ref names nothing.
type Ref struct {
	off uint32
	n   uint16
	ok  bool
}

// arena is the bounded store behind both capture taps: a circular slot array
// of rec plus a circular byte buffer holding their payloads contiguously
// (possibly wrapping), both allocated once by the constructor, so recording
// is lock-protected copies into preallocated memory. The mutex serializes
// record, so goroutines — both sites of a session, every relay shard — may
// share one tap and records never interleave mid-write.
//
// The two taps differ in one decision, fixed at construction: when a
// datagram finds a budget full, a Recorder refuses it and a Ring evicts its
// oldest records until it fits. Either way the loss is counted.
//
// A nil arena is valid and ignores records, so taps can be compiled into hot
// paths unconditionally.
type arena struct {
	mu       sync.Mutex
	evict    bool // a full budget evicts the oldest (Ring) instead of refusing the newest
	epoch    time.Time
	epochSet bool
	recs     []rec
	head     int // index of the oldest record
	count    int // live records
	buf      []byte
	tail     int   // next buf write offset
	used     int   // payload bytes of the live records
	lost     int64 // datagrams refused or evicted
	// slotHi and byteHi are a Ring's high-water marks: how many record
	// slots and buf bytes it has ever written. Its cursors wrap and Reset
	// rewinds them, so its live state cannot tell; Reset keeps the marks,
	// because the memory they count stays resident. A Recorder never wraps
	// or resets, so its live count and tail already are the marks.
	slotHi, byteHi int
}

func newArena(maxRecords, maxBytes int, evict bool) *arena {
	return &arena{evict: evict, recs: make([]rec, maxRecords), buf: make([]byte, maxBytes)}
}

// slot maps the i-th live record, oldest first, to its index in recs.
func (a *arena) slot(i int) int {
	if i += a.head; i >= len(a.recs) {
		i -= len(a.recs)
	}
	return i
}

// reserve makes room for one more record with n payload bytes and returns
// the payload's buf offset, or -1 when the arena refuses it. Terminates:
// every pass returns or evicts, and an empty arena has room.
func (a *arena) reserve(n int) int {
	if n > len(a.buf) || n > maxPayload {
		return -1 // can never fit, so evicting for it would be pointless
	}
	for {
		if a.count == 0 {
			a.head, a.tail = 0, 0
			return 0
		}
		if a.count < len(a.recs) {
			if a.used == 0 {
				// Every live record is empty, so no byte is held and the
				// whole buffer is free (tail == h alone would read as a
				// full one). Rebase them to offset 0, once.
				if a.tail != 0 {
					for i := 0; i < a.count; i++ {
						a.recs[a.slot(i)].off = 0
					}
					a.tail = 0
				}
				return 0
			}
			h := int(a.recs[a.head].off)
			if a.tail > h || !a.evict {
				// Occupied region is [h, tail) — always so when nothing
				// is ever evicted. Free: the buffer's end, then [0, h).
				if len(a.buf)-a.tail >= n {
					return a.tail
				}
				if h >= n {
					return 0 // wrap the write cursor
				}
			} else if h-a.tail >= n {
				// Occupied region wraps: [h, len) ∪ [0, tail). The only
				// free run is [tail, h).
				return a.tail
			}
		}
		if !a.evict {
			return -1
		}
		a.used -= int(a.recs[a.head].n)
		a.head = a.slot(1)
		a.count--
		a.lost++
	}
}

// record appends one datagram, copying its payload into buf, and returns a
// reference to the copy, or the zero Ref when the arena refused it.
func (a *arena) record(at time.Time, dir Dir, site int, payload []byte) Ref {
	if a == nil {
		return Ref{}
	}
	a.mu.Lock()
	a.anchor(at)
	n := len(payload)
	off := a.reserve(n)
	if off < 0 {
		a.lost++
		a.mu.Unlock()
		return Ref{}
	}
	copy(a.buf[off:off+n], payload)
	a.tail = off + n
	ref := Ref{off: uint32(off), n: uint16(n), ok: true}
	a.add(at, dir, site, ref)
	if a.evict {
		a.byteHi = max(a.byteHi, a.tail)
	}
	a.mu.Unlock()
	return ref
}

// recordAgain appends one datagram whose payload an earlier record already
// holds at ref, taking a record slot and no bytes. Only a Recorder may call
// it: a Ring's eviction would free the bytes ref names. A zero ref, like a
// full record budget, is refused and counted, as copying the payload would
// be: the datagram that ref failed to record cannot fit now either, because
// a Recorder's free space only shrinks.
func (a *arena) recordAgain(at time.Time, dir Dir, site int, ref Ref) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.anchor(at)
	if !ref.ok || a.count == len(a.recs) {
		a.lost++
	} else {
		a.add(at, dir, site, ref)
	}
	a.mu.Unlock()
}

// anchor sets the epoch at the first datagram offered. Caller holds mu.
func (a *arena) anchor(at time.Time) {
	if !a.epochSet {
		a.epoch, a.epochSet = at, true
	}
}

// add fills the next record slot with a datagram whose payload is at ref.
// Caller holds mu and has made room.
func (a *arena) add(at time.Time, dir Dir, site int, ref Ref) {
	s := a.slot(a.count)
	a.recs[s] = rec{
		at:   at.Sub(a.epoch).Nanoseconds(),
		off:  ref.off,
		n:    ref.n,
		dir:  dir,
		site: uint8(site),
	}
	a.count++
	a.used += int(ref.n)
	if a.evict {
		a.slotHi = max(a.slotHi, s+1)
	}
}

func (a *arena) reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.head, a.count, a.tail, a.used, a.lost = 0, 0, 0, 0, 0
	a.epoch, a.epochSet = time.Time{}, false
	a.mu.Unlock()
}

// resident returns the bytes recording has written: every record slot ever
// used plus the byte buffer's high-water mark.
func (a *arena) resident() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.evict {
		return a.count*recSize + a.tail
	}
	return a.slotHi*recSize + a.byteHi
}

// liveCount returns the live record count.
func (a *arena) liveCount() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// snapshot materializes the live records, oldest first, as a Capture under
// the given meta. Payloads are copied out, so the arena may keep recording
// afterwards. Meta.Epoch and Meta.Dropped are filled from the arena's state.
func (a *arena) snapshot(meta Meta) *Capture {
	c := &Capture{Meta: meta}
	c.Meta.Version = Version
	if a == nil {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.epochSet {
		c.Meta.Epoch = a.epoch.UnixNano()
	}
	c.Meta.Dropped = a.lost
	c.Records = make([]Record, a.count)
	for i := range c.Records {
		rc := a.recs[a.slot(i)]
		c.Records[i] = Record{
			At:      time.Duration(rc.at),
			Dir:     rc.dir,
			Site:    rc.site,
			Payload: append([]byte(nil), a.buf[rc.off:rc.off+uint32(rc.n)]...),
		}
	}
	return c
}

// Recorder is the refuse-newest tap: once either budget is exhausted it
// stops accepting datagrams and counts the overflow, keeping the earliest
// traffic (the interesting part of most incidents). It answers "how did this
// session start?". See arena for the concurrency and nil contracts.
type Recorder arena

// NewRecorder builds a recorder bounded to maxRecords datagrams and maxBytes
// of total payload. Non-positive bounds select small defaults (4096 records,
// 1 MiB).
func NewRecorder(maxRecords, maxBytes int) *Recorder {
	if maxRecords <= 0 {
		maxRecords = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	return (*Recorder)(newArena(maxRecords, maxBytes, false))
}

// Record appends one datagram. The payload is copied, so the caller's buffer
// may be reused immediately. Steady state allocates nothing; overflow of
// either budget, or a payload larger than a UDP datagram (65,535 bytes),
// drops with a count.
func (r *Recorder) Record(at time.Time, dir Dir, site int, payload []byte) {
	(*arena)(r).record(at, dir, site, payload)
}

// RecordRef is Record that also returns a reference to the recorded payload
// bytes, or the zero Ref when the datagram was refused. A Recorder never
// evicts or rewinds, so the reference stays valid for the Recorder's life.
func (r *Recorder) RecordRef(at time.Time, dir Dir, site int, payload []byte) Ref {
	return (*arena)(r).record(at, dir, site, payload)
}

// RecordAgain records a datagram whose payload this Recorder already holds
// at ref (from RecordRef), without copying it: the new record takes a slot
// from the record budget and nothing from the byte budget. Snapshot reads
// both records' payloads from the same bytes, so the Capture is the one
// copying the payload would give. A zero ref, or a full record budget,
// drops with a count. ref must come from this Recorder.
func (r *Recorder) RecordAgain(at time.Time, dir Dir, site int, ref Ref) {
	(*arena)(r).recordAgain(at, dir, site, ref)
}

// Len returns how many datagrams are recorded.
func (r *Recorder) Len() int { return (*arena)(r).liveCount() }

// Resident returns the bytes the recorder has written: its used record slots
// plus its payload bytes, each counted once however many records share it.
func (r *Recorder) Resident() int { return (*arena)(r).resident() }

// Snapshot materializes the recorder's contents as a Capture (see
// arena.snapshot).
func (r *Recorder) Snapshot(meta Meta) *Capture { return (*arena)(r).snapshot(meta) }

// Ring is the evict-oldest tap: overflow of either budget drops the OLDEST
// traffic instead of refusing the newest. It answers "what just happened?" —
// which is what an anomaly-triggered capture needs, because by the time a
// grader flips a session to degraded the interesting datagrams are the most
// recent ones. Steady-state Record allocates nothing, so a Ring can sit on
// the relay's per-datagram path. See arena for the concurrency and nil
// contracts.
type Ring arena

// NewRing builds a ring bounded to maxRecords datagrams and maxBytes of
// payload. Non-positive bounds select small defaults (256 records, 64 KiB) —
// rings are per-session, so defaults stay modest.
func NewRing(maxRecords, maxBytes int) *Ring {
	if maxRecords <= 0 {
		maxRecords = 256
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 10
	}
	return (*Ring)(newArena(maxRecords, maxBytes, true))
}

// Record appends one datagram, evicting the oldest records if either budget
// is full. The payload is copied, so the caller's buffer may be reused
// immediately. A payload larger than the whole arena, or than a UDP
// datagram (65,535 bytes), is dropped and counted.
func (r *Ring) Record(at time.Time, dir Dir, site int, payload []byte) {
	(*arena)(r).record(at, dir, site, payload)
}

// Len returns how many datagrams the ring currently holds.
func (r *Ring) Len() int { return (*arena)(r).liveCount() }

// Resident returns the bytes the ring has written: every record slot it has
// used plus the high-water mark of its byte buffer. Reset keeps the count,
// since the memory stays resident.
func (r *Ring) Resident() int { return (*arena)(r).resident() }

// Reset empties the ring for reuse (the relay pools stat blocks, and a ring
// rides along with each one). The epoch resets too, so the next recorded
// datagram re-anchors time.
func (r *Ring) Reset() { (*arena)(r).reset() }

// Snapshot materializes the ring's contents — the most recent traffic, in
// time order — as a Capture (see arena.snapshot). A bundle with Dropped > 0
// is a tail view of the session, which is the point.
func (r *Ring) Snapshot(meta Meta) *Capture { return (*arena)(r).snapshot(meta) }
