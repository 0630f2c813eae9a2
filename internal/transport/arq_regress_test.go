package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// reuseConn is a fake lower Conn whose TryRecv hands every queued datagram
// out in the same backing buffer, the way a transport with a receive ring
// (recvmmsg, io_uring) legitimately may. The Conn contract says the caller
// owns the returned slice, so reuseConn models a *misbehaving* lower layer —
// exactly the aliasing hazard the ARQ ingest path must be immune to by
// copying payloads before queueing them.
type reuseConn struct {
	queue [][]byte
	buf   []byte
	sent  [][]byte
}

func (c *reuseConn) push(p []byte) { c.queue = append(c.queue, append([]byte(nil), p...)) }

func (c *reuseConn) Send(p []byte) error {
	c.sent = append(c.sent, append([]byte(nil), p...))
	return nil
}

func (c *reuseConn) TryRecv() ([]byte, bool) {
	if len(c.queue) == 0 {
		return nil, false
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	if cap(c.buf) < len(p) {
		c.buf = make([]byte, len(p))
	}
	c.buf = c.buf[:len(p)]
	copy(c.buf, p)
	return c.buf, true
}

func (c *reuseConn) Close() error       { return nil }
func (c *reuseConn) LocalAddr() string  { return "reuse-local" }
func (c *reuseConn) RemoteAddr() string { return "reuse-remote" }

// dataSegment encodes an ARQ data segment with the given sequence.
func dataSegment(seq uint32, payload string) []byte {
	buf := make([]byte, arqHeaderLen+len(payload))
	buf[0] = arqData
	binary.BigEndian.PutUint32(buf[1:5], seq)
	copy(buf[arqHeaderLen:], payload)
	return buf
}

// ackSegment encodes a cumulative ack carrying next-expected seq.
func ackSegment(seq uint32) []byte {
	var buf [arqHeaderLen]byte
	buf[0] = arqAck
	binary.BigEndian.PutUint32(buf[1:5], seq)
	return buf[:]
}

func TestARQCopiesPayloadsFromBufferReusingConn(t *testing.T) {
	lower := &reuseConn{}
	arq := NewARQ(lower, vclock.NewVirtual(epoch), time.Hour)

	// Deliver seq 1 first (buffered out of order), then seq 0. With the
	// pre-fix aliasing, both queued payloads point into lower.buf, which
	// the second datagram overwrites.
	lower.push(dataSegment(1, "BBBB"))
	lower.push(dataSegment(0, "AAAA"))

	got1, ok := arq.TryRecv()
	if !ok || string(got1) != "AAAA" {
		t.Fatalf("first = %q/%v, want AAAA", got1, ok)
	}
	got2, ok := arq.TryRecv()
	if !ok || string(got2) != "BBBB" {
		t.Fatalf("second = %q/%v, want BBBB (payload corrupted by buffer reuse)", got2, ok)
	}
	// The delivered slices must survive further buffer churn, too.
	lower.push(dataSegment(2, "CCCC"))
	if _, ok := arq.TryRecv(); !ok {
		t.Fatal("third datagram not delivered")
	}
	if string(got1) != "AAAA" || string(got2) != "BBBB" {
		t.Fatalf("earlier payloads mutated after more traffic: %q %q", got1, got2)
	}
}

func TestARQBoundsOutOfOrderBuffer(t *testing.T) {
	lower := &reuseConn{}
	arq := NewARQ(lower, vclock.NewVirtual(epoch), time.Hour)

	// A corrupted header can carry any sequence. Far-future sequences
	// (beyond the sender-window horizon) must be dropped and counted, not
	// buffered forever.
	const injected = 64
	for i := 0; i < injected; i++ {
		seq := uint32(DefaultSenderWindow + 1 + i*1000)
		lower.push(dataSegment(seq, "garbage"))
	}
	arq.Flush()
	st := arq.Stats()
	if st.OOO != 0 {
		t.Errorf("ooo buffer holds %d far-future segments, want 0", st.OOO)
	}
	if st.FarDropped != injected {
		t.Errorf("FarDropped = %d, want %d", st.FarDropped, injected)
	}

	// In-window out-of-order segments are still buffered normally.
	lower.push(dataSegment(3, "ok"))
	arq.Flush()
	if st := arq.Stats(); st.OOO != 1 {
		t.Errorf("in-window segment not buffered: ooo = %d, want 1", st.OOO)
	}
	// The horizon is relative to expected: right at the boundary drops,
	// one inside is kept.
	lower.push(dataSegment(uint32(DefaultSenderWindow), "edge"))
	lower.push(dataSegment(uint32(DefaultSenderWindow)-1, "inside"))
	arq.Flush()
	st = arq.Stats()
	if st.OOO != 2 {
		t.Errorf("ooo = %d after boundary probes, want 2 (edge dropped, inside kept)", st.OOO)
	}
	if st.FarDropped != injected+1 {
		t.Errorf("FarDropped = %d, want %d", st.FarDropped, injected+1)
	}
}

func TestARQReceiveAcrossSequenceWrap(t *testing.T) {
	lower := &reuseConn{}
	arq := NewARQ(lower, vclock.NewVirtual(epoch), time.Hour)
	start := uint32(math.MaxUint32 - 2) // 3 segments before the wrap
	arq.expected = start

	// Deliver six segments spanning the wrap, shuffled.
	order := []uint32{start + 1, start + 3, start, start + 5, start + 2, start + 4}
	for _, seq := range order {
		lower.push(dataSegment(seq, fmt.Sprintf("p%d", seq-start)))
	}
	var got []string
	for {
		p, ok := arq.TryRecv()
		if !ok {
			break
		}
		got = append(got, string(p))
	}
	want := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	if len(got) != len(want) {
		t.Fatalf("delivered %d segments %v, want %d (wrapped seqs mistaken for duplicates)", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d = %q, want %q", i, got[i], want[i])
		}
	}
	if arq.expected != start+6 {
		t.Errorf("expected = %d, want %d (wrapped)", arq.expected, start+6)
	}
}

func TestARQAckAcrossSequenceWrap(t *testing.T) {
	lower := &reuseConn{}
	arq := NewARQ(lower, vclock.NewVirtual(epoch), time.Hour)
	arq.nextSeq = math.MaxUint32 - 1

	// Two segments straddle the wrap: seqs MaxUint32-1 and MaxUint32.
	for i := 0; i < 2; i++ {
		if err := arq.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if got := arq.Unacked(); got != 2 {
		t.Fatalf("Unacked = %d before ack, want 2", got)
	}
	// A cumulative ack from after the wrap (next expected = 0) covers
	// both pre-wrap segments. With plain >= comparison they would look
	// "not yet acked" forever and retransmit for the rest of the session.
	lower.push(ackSegment(0))
	arq.Flush()
	if got := arq.Unacked(); got != 0 {
		t.Errorf("Unacked = %d after wrapped cumulative ack, want 0", got)
	}

	// And an ack must never free segments it does not cover: send one
	// more (seq 0 after the wrap) and re-deliver the stale ack.
	if err := arq.Send([]byte{9}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	lower.push(ackSegment(0))
	arq.Flush()
	if got := arq.Unacked(); got != 1 {
		t.Errorf("Unacked = %d, want 1 (stale ack must not cover seq 0)", got)
	}
}

// TestARQWrapUnderLoss drives a full sender/receiver pair across the wrap
// through a lossy, jittery emulated link, checking end-to-end exactly-once
// in-order delivery with retransmission on both sides of the boundary.
func TestARQWrapUnderLoss(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	rawA, rawB, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	fwd, rev := netem.Symmetric(30*time.Millisecond, 5*time.Millisecond, 0.2, 77)
	netem.Install(n, "a", "b", fwd, rev)

	arqA := NewARQ(rawA, v, 80*time.Millisecond)
	arqB := NewARQ(rawB, v, 80*time.Millisecond)
	start := uint32(math.MaxUint32 - 7) // 8 segments before the wrap
	arqA.nextSeq = start
	arqB.expected = start

	const count = 64
	done := v.Go(func() {
		sent, got := 0, 0
		deadline := v.Now().Add(time.Minute)
		for got < count && v.Now().Before(deadline) {
			if sent < count {
				if err := arqA.Send([]byte{byte(sent)}); err != nil {
					t.Errorf("Send %d: %v", sent, err)
				}
				sent++
			}
			for {
				p, ok := arqB.TryRecv()
				if !ok {
					break
				}
				if !bytes.Equal(p, []byte{byte(got)}) {
					t.Fatalf("datagram %d = %v, want [%d]", got, p, got)
				}
				got++
			}
			arqA.Flush()
			v.Sleep(2 * time.Millisecond)
		}
		if got != count {
			t.Fatalf("delivered %d/%d across the wrap", got, count)
		}
	})
	<-done
	if arqA.Retransmissions() == 0 {
		t.Error("no retransmissions despite 20%% loss; wrap path untested under recovery")
	}
}

func TestARQClosedConnDoesNotRetransmit(t *testing.T) {
	lower := &reuseConn{}
	v := vclock.NewVirtual(epoch)
	arq := NewARQ(lower, v, 50*time.Millisecond)
	if err := arq.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := arq.Close(); err != nil {
		t.Fatal(err)
	}
	<-v.Go(func() { v.Sleep(time.Second) })
	arq.TryRecv()
	if n := arq.Retransmissions(); n != 0 {
		t.Errorf("Retransmissions = %d after Close, want 0", n)
	}
	if len(lower.sent) != 1 {
		t.Errorf("%d datagrams sent, want only the one before Close", len(lower.sent))
	}
	if at, ok := arq.NextTimer(); ok {
		t.Errorf("NextTimer = %v after Close, want no timer", at)
	}
}
