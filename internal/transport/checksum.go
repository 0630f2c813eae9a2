package transport

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"time"

	"retrolock/internal/vclock"
)

// checksumTrailerLen is the CRC-32 trailer appended to every datagram.
const checksumTrailerLen = 4

// ChecksumConn layers an end-to-end checksum over a Conn, modelling the UDP
// checksum the paper's system gets for free from the kernel: datagrams whose
// payload was corrupted in flight (see simnet.Corrupter / netem's Corrupt
// knob) are silently discarded on receive instead of being delivered with
// flipped bits. Without it, a single bit error in a sync message would be
// merged into the input buffer as if it were the peer's real input and the
// replicas would silently diverge — which is a property of lossy links, not
// a bug in Algorithm 2.
//
// Wire format: payload followed by a 4-byte big-endian CRC-32 (IEEE).
type ChecksumConn struct {
	lower Conn

	mu        sync.Mutex
	sendBuf   []byte
	discarded int
}

// NewChecksum wraps lower with checksum framing.
func NewChecksum(lower Conn) *ChecksumConn {
	return &ChecksumConn{lower: lower}
}

// Send implements Conn, appending the payload's CRC-32.
func (c *ChecksumConn) Send(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	need := len(p) + checksumTrailerLen
	if cap(c.sendBuf) < need {
		c.sendBuf = make([]byte, need)
	}
	buf := c.sendBuf[:need]
	copy(buf, p)
	binary.BigEndian.PutUint32(buf[len(p):], crc32.ChecksumIEEE(p))
	return c.lower.Send(buf)
}

// TryRecv implements Conn, verifying and stripping the trailer. Datagrams
// that fail verification (or are too short to carry one) are dropped, and
// the next pending datagram is tried, so a corrupted packet behaves exactly
// like a lost one.
func (c *ChecksumConn) TryRecv() ([]byte, bool) {
	for {
		raw, ok := c.lower.TryRecv()
		if !ok {
			return nil, false
		}
		if len(raw) < checksumTrailerLen {
			c.countDiscard()
			continue
		}
		body := raw[:len(raw)-checksumTrailerLen]
		want := binary.BigEndian.Uint32(raw[len(body):])
		if crc32.ChecksumIEEE(body) != want {
			c.countDiscard()
			continue
		}
		return body, true
	}
}

func (c *ChecksumConn) countDiscard() {
	c.mu.Lock()
	c.discarded++
	c.mu.Unlock()
}

// Discarded reports how many datagrams failed checksum verification.
func (c *ChecksumConn) Discarded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discarded
}

// Close implements Conn.
func (c *ChecksumConn) Close() error { return c.lower.Close() }

// NotifyArrival implements Notifier by asking the wrapped conn; fn also runs
// for datagrams TryRecv will discard.
func (c *ChecksumConn) NotifyArrival(v *vclock.Virtual, fn func()) bool {
	return notifyArrival(c.lower, v, fn)
}

// NextTimer implements Notifier by asking the wrapped conn.
func (c *ChecksumConn) NextTimer() (time.Time, bool) { return nextTimer(c.lower) }

// LocalAddr implements Conn.
func (c *ChecksumConn) LocalAddr() string { return c.lower.LocalAddr() }

// RemoteAddr implements Conn.
func (c *ChecksumConn) RemoteAddr() string { return c.lower.RemoteAddr() }

var _ Conn = (*ChecksumConn)(nil)
var _ Notifier = (*ChecksumConn)(nil)
