package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// maxDatagram is the largest datagram the UDP transport accepts. The sync
// protocol's messages are far smaller (a header plus a few dozen two-byte
// inputs), so 64 KiB leaves ample headroom.
const maxDatagram = 64 * 1024

// udpQueueLen bounds the reader-to-consumer queue, in datagrams. When the
// consumer stalls, the oldest traffic is dropped — the same failure mode as a
// full kernel socket buffer.
const udpQueueLen = 1024

// datagramQueue is the bounded reader-to-consumer FIFO of the socket conns.
// Callers hold their conn's lock. ARQConn's in-order delivery queue is one
// too, filled by append instead of push: it must not drop what it delivers.
type datagramQueue [][]byte

// push appends p, dropping the oldest datagram once udpQueueLen are queued.
func (q *datagramQueue) push(p []byte) {
	if len(*q) >= udpQueueLen {
		(*q)[0] = nil
		*q = (*q)[1:]
	}
	*q = append(*q, p)
}

// pop removes and returns the oldest datagram. Emptying the queue keeps its
// backing array: reslicing past the last entry would leave no capacity, and
// a consumer that keeps up with the reader would make every push allocate.
func (q *datagramQueue) pop() ([]byte, bool) {
	if len(*q) == 0 {
		return nil, false
	}
	p := (*q)[0]
	(*q)[0] = nil
	if len(*q) == 1 {
		*q = (*q)[:0]
	} else {
		*q = (*q)[1:]
	}
	return p, true
}

// UDPConn is a Conn over a real UDP socket connected to a single peer. A
// background goroutine moves datagrams from the socket into an in-memory
// queue so that TryRecv never blocks; this mirrors the paper's two-thread
// message production/consumption design (§4.2).
//
// UDPConn uses the host clock for socket I/O and therefore belongs to live
// play only; experiments use SimConn over virtual time.
type UDPConn struct {
	sock *net.UDPConn

	mu     sync.Mutex
	queue  datagramQueue
	closed bool
	done   chan struct{}
}

// DialUDP binds localAddr (e.g. ":7000", or "" for an ephemeral port) and
// connects it to remoteAddr (e.g. "192.0.2.1:7000").
func DialUDP(localAddr, remoteAddr string) (*UDPConn, error) {
	var laddr *net.UDPAddr
	if localAddr != "" {
		a, err := net.ResolveUDPAddr("udp", localAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: resolve local %q: %w", localAddr, err)
		}
		laddr = a
	}
	raddr, err := net.ResolveUDPAddr("udp", remoteAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve remote %q: %w", remoteAddr, err)
	}
	sock, err := net.DialUDP("udp", laddr, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp: %w", err)
	}
	c := &UDPConn{sock: sock, done: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

func (c *UDPConn) readLoop() {
	buf := make([]byte, maxDatagram)
	for {
		n, err := c.sock.Read(buf)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				close(c.done)
				return
			}
			// Transient error — typically ECONNREFUSED from an ICMP
			// port-unreachable when the peer has not bound its
			// socket yet. The lockstep protocol retransmits, so
			// keep reading.
			time.Sleep(time.Millisecond)
			continue
		}
		p := make([]byte, n)
		copy(p, buf[:n])
		c.mu.Lock()
		if !c.closed {
			c.queue.push(p)
		}
		c.mu.Unlock()
	}
}

// Send implements Conn.
func (c *UDPConn) Send(p []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	_, err := c.sock.Write(p)
	if err != nil {
		// Connected UDP sockets report ECONNREFUSED when the peer is
		// not yet listening; the lockstep protocol retransmits, so
		// swallow transient send errors like a raw socket would.
		return nil
	}
	return nil
}

// TryRecv implements Conn.
func (c *UDPConn) TryRecv() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.pop()
}

// Close implements Conn.
func (c *UDPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.sock.Close()
	<-c.done // wait for the reader goroutine to exit
	return err
}

// LocalAddr implements Conn.
func (c *UDPConn) LocalAddr() string { return c.sock.LocalAddr().String() }

// RemoteAddr implements Conn.
func (c *UDPConn) RemoteAddr() string { return c.sock.RemoteAddr().String() }

var _ Conn = (*UDPConn)(nil)
