package transport

import (
	"sync"
	"time"

	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// SimConn is a Conn over an in-process simnet endpoint, connected to a
// single peer address. Datagrams arriving from any other source are
// discarded, mirroring a connected UDP socket.
type SimConn struct {
	mu     sync.Mutex
	ep     *simnet.Endpoint
	peer   string
	closed bool
}

// NewSim connects endpoint ep to the peer bound at peerAddr.
func NewSim(ep *simnet.Endpoint, peerAddr string) *SimConn {
	return &SimConn{ep: ep, peer: peerAddr}
}

// SimPair binds two fresh endpoints on n and returns connected ends a<->b.
// The link keeps whatever shaping n has configured for the pair.
func SimPair(n *simnet.Network, addrA, addrB string) (*SimConn, *SimConn, error) {
	epA, err := n.Bind(addrA)
	if err != nil {
		return nil, nil, err
	}
	epB, err := n.Bind(addrB)
	if err != nil {
		epA.Close()
		return nil, nil, err
	}
	return NewSim(epA, addrB), NewSim(epB, addrA), nil
}

// Send implements Conn.
func (c *SimConn) Send(p []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	err := c.ep.SendTo(c.peer, p)
	if err == simnet.ErrNoRoute {
		// The peer is gone; a real UDP sender would not notice. Swallow
		// the error so protocol code behaves identically on both
		// substrates.
		return nil
	}
	return err
}

// TryRecv implements Conn.
func (c *SimConn) TryRecv() ([]byte, bool) {
	for {
		d, ok := c.ep.TryRecv()
		if !ok {
			return nil, false
		}
		if d.From == c.peer {
			return d.Payload, true
		}
		// Datagram from an unconnected source: drop and keep looking.
	}
}

// Close implements Conn.
func (c *SimConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.ep.Close()
}

// NotifyArrival implements Notifier: fn runs on every datagram the endpoint
// queues, including ones TryRecv will discard as foreign.
func (c *SimConn) NotifyArrival(v *vclock.Virtual, fn func()) bool {
	return c.ep.OnArrival(v, fn)
}

// NextTimer implements Notifier: a SimConn has no timers.
func (c *SimConn) NextTimer() (time.Time, bool) { return time.Time{}, false }

// LocalAddr implements Conn.
func (c *SimConn) LocalAddr() string { return c.ep.Addr() }

// RemoteAddr implements Conn.
func (c *SimConn) RemoteAddr() string { return c.peer }

var _ Conn = (*SimConn)(nil)
var _ Notifier = (*SimConn)(nil)
