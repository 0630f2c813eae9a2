package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/span"
	"retrolock/internal/vclock"
)

// ARQ wire format (big endian):
//
//	byte 0      kind: arqData | arqAck
//	bytes 1-4   sequence number
//	bytes 5..   payload (arqData only)
//
// Acks are cumulative and carry the receiver's next expected sequence:
// ACK(n) confirms receipt of every datagram with sequence < n.
//
// Sequence numbers are compared with serial-number arithmetic (seqBefore),
// so they wrap safely at 2^32, and the receiver only buffers segments within
// one sender window of the next expected sequence: anything further — which
// a correct peer cannot produce, but a corrupted header can — is dropped and
// counted instead of growing the out-of-order buffer without bound.
const (
	arqData = byte(1)
	arqAck  = byte(2)

	arqHeaderLen = 5
)

// DefaultRTO is the initial retransmission timeout of an ARQ connection.
// Like early TCP implementations it is fixed rather than RTT-adaptive; each
// retransmission of the same segment doubles it up to 8x.
const DefaultRTO = 200 * time.Millisecond

// ARQConn wraps an unreliable Conn with TCP-like semantics: every datagram
// is delivered exactly once and in order, using cumulative acks and timeout
// retransmission. Out-of-order arrivals are buffered, which gives the
// head-of-line blocking that makes reliable transports problematic for
// real-time sync (§3.1): one lost segment stalls everything behind it for at
// least one RTO.
//
// The connection is driven entirely by its Send/TryRecv calls (no internal
// goroutine). Each unacked segment keeps its wire bytes and its
// retransmission deadline, and the connection keeps the earliest of those
// deadlines: a TryRecv before it only drains the lower conn, NextTimer
// reports it without looking at the window, and a retransmission resends the
// stored bytes.
type ARQConn struct {
	mu sync.Mutex

	lower Conn
	clock vclock.Clock
	rto   time.Duration

	// Optional frame-event tracing (nil-safe): every retransmission is
	// recorded as an EvRetransmit instant with the segment sequence as Arg.
	tracer    *obs.Tracer
	traceSite int

	// Optional input-journey journal (nil-safe): every retransmission is
	// attributed to the newest sync frame the journal saw sent, adding the
	// ARQ hop to that frame's span.
	journal *span.Journal

	// Sender state. unacked holds the segments awaiting acknowledgement in
	// sequence order; the slots between its length and capacity keep the
	// wire buffers of acked segments for Send to reuse. earliest is the
	// minimum due over unacked, and means nothing while unacked is empty.
	nextSeq  uint32
	unacked  []arqSegment
	earliest time.Time
	retrans  int
	// maxAhead is the sender window: the max unacked segments before Send
	// starts failing. It doubles as the receive horizon — data segments at
	// or beyond expected+maxAhead are dropped, since a correct peer with a
	// symmetric window cannot legitimately produce them.
	maxAhead int

	// Receiver state. ackBuf is the wire buffer of every ack sent; the
	// lower conn copies what it sends, as Send's reused wire buffers
	// already require.
	expected   uint32
	ooo        map[uint32][]byte
	ready      datagramQueue
	ackBuf     [arqHeaderLen]byte
	farDropped int // data segments dropped beyond the receive horizon
	closed     bool
}

// seqBefore reports whether sequence a precedes b in serial-number
// arithmetic: the uint32 space is treated as a circle, so comparisons stay
// correct across the 2^32 wrap (a half-space apart is unreachable because
// the sender window is tiny compared to the sequence space).
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// arqSegment is one unacked data segment: its bytes as transmitted, the
// instant it is next retransmitted, and the timeout that set that instant.
type arqSegment struct {
	seq  uint32
	wire []byte
	due  time.Time
	rto  time.Duration
}

// DefaultSenderWindow bounds the number of in-flight unacked segments.
const DefaultSenderWindow = 1024

// NewARQ layers reliability over lower, timing retransmissions with clock.
// A non-positive rto uses DefaultRTO.
func NewARQ(lower Conn, clock vclock.Clock, rto time.Duration) *ARQConn {
	if rto <= 0 {
		rto = DefaultRTO
	}
	return &ARQConn{
		lower:    lower,
		clock:    clock,
		rto:      rto,
		ooo:      make(map[uint32][]byte),
		maxAhead: DefaultSenderWindow,
	}
}

// Send implements Conn. The datagram is queued for reliable delivery; if the
// sender window is full the oldest unacked segment is still retained and the
// call fails, exposing backpressure the way a full TCP send buffer would.
func (c *ARQConn) Send(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if len(c.unacked) >= c.maxAhead {
		return fmt.Errorf("transport: arq send window full (%d unacked)", len(c.unacked))
	}
	n := len(c.unacked)
	c.unacked = slices.Grow(c.unacked, 1)[:n+1]
	seg := &c.unacked[n]
	seg.seq = c.nextSeq
	c.nextSeq++
	seg.wire = binary.BigEndian.AppendUint32(append(seg.wire[:0], arqData), seg.seq)
	seg.wire = append(seg.wire, p...)
	seg.rto = c.rto
	seg.due = c.clock.Now().Add(seg.rto)
	if n == 0 || seg.due.Before(c.earliest) {
		c.earliest = seg.due
	}
	return c.lower.Send(seg.wire)
}

func (c *ARQConn) sendAckLocked() {
	c.ackBuf[0] = arqAck
	binary.BigEndian.PutUint32(c.ackBuf[1:5], c.expected)
	// Best effort; a lost ack just causes a retransmission.
	_ = c.lower.Send(c.ackBuf[:])
}

// TryRecv implements Conn. It also drives ack processing and retransmission.
func (c *ARQConn) TryRecv() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pumpLocked()
	return c.ready.pop()
}

// pumpLocked ingests everything pending on the lower connection and, unless
// the connection is closed, retransmits timed-out segments in sequence order.
func (c *ARQConn) pumpLocked() {
	for {
		raw, ok := c.lower.TryRecv()
		if !ok {
			break
		}
		c.handleLocked(raw)
	}
	now := c.clock.Now()
	if c.closed || len(c.unacked) == 0 || now.Before(c.earliest) {
		return
	}
	for i := range c.unacked {
		seg := &c.unacked[i]
		if now.Before(seg.due) {
			continue
		}
		if seg.rto < 8*c.rto {
			seg.rto *= 2
		}
		seg.due = now.Add(seg.rto)
		c.retrans++
		// Frame -1: retransmissions are not tied to a game frame.
		c.tracer.Record(obs.EvRetransmit, c.traceSite, -1, now, int64(seg.seq))
		c.journal.Retransmit(now)
		_ = c.lower.Send(seg.wire)
	}
	c.resetEarliestLocked()
}

// resetEarliestLocked recomputes earliest from the window.
func (c *ARQConn) resetEarliestLocked() {
	for i := range c.unacked {
		if due := c.unacked[i].due; i == 0 || due.Before(c.earliest) {
			c.earliest = due
		}
	}
}

func (c *ARQConn) handleLocked(raw []byte) {
	if len(raw) < arqHeaderLen {
		return // runt: ignore
	}
	seq := binary.BigEndian.Uint32(raw[1:5])
	switch raw[0] {
	case arqAck:
		// Cumulative: drop every segment preceding next-expected
		// (serial arithmetic, so acks stay correct across the wrap). The
		// kept segments move to the front in order; the dropped ones
		// move behind them, where Send reuses their wire buffers.
		keep := 0
		for i := range c.unacked {
			if !seqBefore(c.unacked[i].seq, seq) {
				c.unacked[keep], c.unacked[i] = c.unacked[i], c.unacked[keep]
				keep++
			}
		}
		if keep < len(c.unacked) {
			c.unacked = c.unacked[:keep]
			c.resetEarliestLocked()
		}
	case arqData:
		switch delta := int32(seq - c.expected); {
		case delta == 0:
			// The payload is copied on ingest: a lower Conn may reuse
			// its receive buffer, and ready/ooo entries outlive this
			// call.
			c.ready = append(c.ready, copyPayload(raw))
			c.expected++
			for {
				next, ok := c.ooo[c.expected]
				if !ok {
					break
				}
				delete(c.ooo, c.expected)
				c.ready = append(c.ready, next)
				c.expected++
			}
		case delta > 0:
			if delta >= int32(c.maxAhead) {
				// Beyond the sender-window horizon: a correct peer
				// cannot have this many segments in flight, so the
				// sequence is corrupt or hostile. Drop it instead of
				// buffering arbitrarily far-future segments forever.
				c.farDropped++
				return
			}
			if _, dup := c.ooo[seq]; !dup {
				c.ooo[seq] = copyPayload(raw)
			}
		default:
			// Duplicate of already-delivered data: re-ack only.
		}
		c.sendAckLocked()
	}
}

// copyPayload extracts an owned copy of a data segment's payload.
func copyPayload(raw []byte) []byte {
	cp := make([]byte, len(raw)-arqHeaderLen)
	copy(cp, raw[arqHeaderLen:])
	return cp
}

// SetTracer attaches a frame-event tracer; subsequent retransmissions are
// recorded against site. Safe to call before the connection is driven; not
// safe concurrently with Send/TryRecv.
func (c *ARQConn) SetTracer(site int, t *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
	c.traceSite = site
}

// SetJournal attaches an input-journey journal; subsequent retransmissions
// add an ARQ hop to the span of the newest frame the journal saw sent.
func (c *ARQConn) SetJournal(j *span.Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// Unacked reports how many segments await acknowledgement.
func (c *ARQConn) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unacked)
}

// Retransmissions reports the lifetime retransmission count.
func (c *ARQConn) Retransmissions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retrans
}

// ARQStats is a snapshot of an ARQ connection's bookkeeping, for the chaos
// harness's bounded-memory and retransmission-sanity invariants.
type ARQStats struct {
	Unacked         int // segments awaiting acknowledgement (sender window)
	OOO             int // out-of-order segments buffered at the receiver
	Ready           int // delivered-in-order segments not yet consumed
	Retransmissions int // lifetime retransmission count
	FarDropped      int // data segments dropped beyond the receive horizon
}

// Stats returns a snapshot of the connection's counters and buffer gauges.
func (c *ARQConn) Stats() ARQStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ARQStats{
		Unacked:         len(c.unacked),
		OOO:             len(c.ooo),
		Ready:           len(c.ready),
		Retransmissions: c.retrans,
		FarDropped:      c.farDropped,
	}
}

// Close implements Conn.
func (c *ARQConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.lower.Close()
}

// NotifyArrival implements Notifier by asking the wrapped conn. It fails when
// the connection times its retransmissions on another clock than v.
func (c *ARQConn) NotifyArrival(v *vclock.Virtual, fn func()) bool {
	return c.clock == vclock.Clock(v) && notifyArrival(c.lower, v, fn)
}

// NextTimer implements Notifier: the earliest retransmission deadline, or the
// wrapped conn's timer if that comes first. A closed connection has none.
func (c *ARQConn) NextTimer() (time.Time, bool) {
	at, ok := nextTimer(c.lower)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return time.Time{}, false
	}
	if len(c.unacked) > 0 && (!ok || c.earliest.Before(at)) {
		at, ok = c.earliest, true
	}
	return at, ok
}

// LocalAddr implements Conn.
func (c *ARQConn) LocalAddr() string { return c.lower.LocalAddr() }

// RemoteAddr implements Conn.
func (c *ARQConn) RemoteAddr() string { return c.lower.RemoteAddr() }

var _ Conn = (*ARQConn)(nil)
var _ Notifier = (*ARQConn)(nil)
