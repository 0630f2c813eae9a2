// Benchmarks for the ARQ baseline's per-poll and per-segment paths, part of
// make bench-hotpath's 0-allocs/op gate. A blocked SyncInput over ARQ polls
// TryRecv and asks NextTimer many times per frame while a window of segments
// waits for its acks, so a poll that finds nothing due must cost neither a
// scan of that window nor an allocation; and a segment sent and acked must
// reuse the wire buffer of one acked before it. Their tier-1 twin is
// TestARQHotPathDoesNotAllocate.
package retrolock_test

import (
	"encoding/binary"
	"testing"
	"time"

	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// The ARQ wire format's kind bytes (see internal/transport/arq.go): kind,
// then a big-endian sequence, then a data segment's payload. An ack's
// sequence is the next one its sender expects.
const (
	arqDataKind = 1
	arqAckKind  = 2
)

// ackConn is the lower conn of the ARQ benchmarks: it drops what is sent and
// hands out at most one queued ack and one queued data segment, so the ARQ
// layer is all that runs.
type ackConn struct {
	in          [5]byte
	pending     bool
	seg         []byte
	pendingData bool
}

// ack queues the cumulative ack confirming every sequence before next.
func (c *ackConn) ack(next uint32) {
	c.in[0] = arqAckKind
	binary.BigEndian.PutUint32(c.in[1:], next)
	c.pending = true
}

func (c *ackConn) Send([]byte) error { return nil }
func (c *ackConn) TryRecv() ([]byte, bool) {
	switch {
	case c.pending:
		c.pending = false
		return c.in[:], true
	case c.pendingData:
		c.pendingData = false
		return c.seg, true
	}
	return nil, false
}
func (c *ackConn) Close() error       { return nil }
func (c *ackConn) LocalAddr() string  { return "ack-local" }
func (c *ackConn) RemoteAddr() string { return "ack-remote" }

// newARQBacklog returns an ARQ conn holding backlog unacked 40-byte
// segments, none of them due for an hour.
func newARQBacklog(tb testing.TB, backlog int) (*transport.ARQConn, *ackConn) {
	tb.Helper()
	lower := &ackConn{}
	c := transport.NewARQ(lower, vclock.NewVirtual(time.Unix(0, 0)), time.Hour)
	p := make([]byte, 40)
	for i := 0; i < backlog; i++ {
		if err := c.Send(p); err != nil {
			tb.Fatal(err)
		}
	}
	return c, lower
}

// arqPoll is one poll of a waiting reader: TryRecv, then NextTimer.
func arqPoll(c *transport.ARQConn) {
	c.TryRecv()
	c.NextTimer()
}

// data queues the data segment carrying payload under seq.
func (c *ackConn) data(seq uint32, payload []byte) {
	c.seg = binary.BigEndian.AppendUint32(append(c.seg[:0], arqDataKind), seq)
	c.seg = append(c.seg, payload...)
	c.pendingData = true
}

// arqDeliver ingests the next in-order data segment and reads it back.
func arqDeliver(c *transport.ARQConn, lower *ackConn, p []byte, seq *uint32) {
	lower.data(*seq, p)
	*seq++
	if _, ok := c.TryRecv(); !ok {
		panic("an in-order data segment was not delivered")
	}
}

// arqSendAck sends one 40-byte segment and ingests its ack.
func arqSendAck(c *transport.ARQConn, lower *ackConn, p []byte, seq *uint32) {
	_ = c.Send(p)
	*seq++
	lower.ack(*seq)
	c.TryRecv()
}

// BenchmarkARQPollBacklog is one poll with 64 segments unacked and none due.
func BenchmarkARQPollBacklog(b *testing.B) {
	c, _ := newARQBacklog(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arqPoll(c)
	}
}

// BenchmarkARQSendAck is one 40-byte Send and the ingest of its ack.
func BenchmarkARQSendAck(b *testing.B) {
	c, lower := newARQBacklog(b, 0)
	p := make([]byte, 40)
	var seq uint32
	arqSendAck(c, lower, p, &seq) // the first Send grows the window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arqSendAck(c, lower, p, &seq)
	}
}

// TestARQHotPathDoesNotAllocate is the tier-1 twin of the two benchmarks
// above.
func TestARQHotPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated in non-race builds only, like the other hot-path twins")
	}
	c, _ := newARQBacklog(t, 64)
	if got := testing.AllocsPerRun(500, func() { arqPoll(c) }); got != 0 {
		t.Errorf("a poll over 64 unacked segments allocates %v, want 0", got)
	}
	c, lower := newARQBacklog(t, 0)
	p := make([]byte, 40)
	var seq uint32
	arqSendAck(c, lower, p, &seq)
	if got := testing.AllocsPerRun(500, func() { arqSendAck(c, lower, p, &seq) }); got != 0 {
		t.Errorf("a Send and its ack allocate %v, want 0", got)
	}
	if n := c.Unacked(); n != 0 {
		t.Errorf("%d segments unacked after every send was acked", n)
	}
}

// TestARQDeliveryAllocatesOnlyItsCopy: an in-order data segment delivered
// through TryRecv costs one allocation, the payload copy the caller keeps.
// Its ack and the ready queue reuse the conn's memory.
func TestARQDeliveryAllocatesOnlyItsCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated in non-race builds only, like the other hot-path twins")
	}
	c, lower := newARQBacklog(t, 0)
	p := make([]byte, 40)
	var seq uint32
	arqDeliver(c, lower, p, &seq)
	if got := testing.AllocsPerRun(500, func() { arqDeliver(c, lower, p, &seq) }); got > 1 {
		t.Errorf("delivering a data segment allocates %v, want at most 1 (the payload copy)", got)
	}
}
