package transport

import (
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/vclock"
)

// TapConn wraps a Conn and mirrors every datagram into a capture.Recorder —
// the transport-level hook of the RKCP capture pipeline. It sits below
// whatever reliability layer the session stacks on top (tap first, then
// ARQ), so a capture shows the wire as it actually looked: retransmissions,
// duplicates and all.
//
// The tap adds two clock reads and one bounded copy per datagram and
// allocates nothing in steady state (the recorder's budgets are
// preallocated), so it is safe to leave attached on the sync hot path — the
// CI allocation gate runs with it on.
type TapConn struct {
	inner Conn
	clock vclock.Clock
	site  int
	rec   *capture.Recorder
}

// NewTap wraps inner so every send and receive is recorded against site.
// A nil recorder yields a pass-through tap.
func NewTap(inner Conn, clock vclock.Clock, site int, rec *capture.Recorder) *TapConn {
	return &TapConn{inner: inner, clock: clock, site: site, rec: rec}
}

// Send implements Conn.
func (c *TapConn) Send(p []byte) error {
	c.rec.Record(c.clock.Now(), capture.DirSend, c.site, p)
	return c.inner.Send(p)
}

// TryRecv implements Conn. The returned slice keeps the inner connection's
// borrow contract (valid until the next TryRecv); the recorder copies the
// payload before returning.
func (c *TapConn) TryRecv() ([]byte, bool) {
	p, ok := c.inner.TryRecv()
	if ok {
		c.rec.Record(c.clock.Now(), capture.DirRecv, c.site, p)
	}
	return p, ok
}

// Close implements Conn.
func (c *TapConn) Close() error { return c.inner.Close() }

// NotifyArrival implements Notifier by asking the wrapped conn.
func (c *TapConn) NotifyArrival(v *vclock.Virtual, fn func()) bool {
	return notifyArrival(c.inner, v, fn)
}

// NextTimer implements Notifier by asking the wrapped conn.
func (c *TapConn) NextTimer() (time.Time, bool) { return nextTimer(c.inner) }

// LocalAddr implements Conn.
func (c *TapConn) LocalAddr() string { return c.inner.LocalAddr() }

// RemoteAddr implements Conn.
func (c *TapConn) RemoteAddr() string { return c.inner.RemoteAddr() }

var _ Conn = (*TapConn)(nil)
var _ Notifier = (*TapConn)(nil)
