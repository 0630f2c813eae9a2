package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPConn carries datagrams over a real TCP stream using 4-byte big-endian
// length prefixes. It is the live-network counterpart of the ARQ baseline:
// reliable and ordered, hence subject to head-of-line blocking under loss.
// Nagle's algorithm is disabled so small lockstep messages leave immediately.
type TCPConn struct {
	sock net.Conn

	writeMu sync.Mutex

	mu     sync.Mutex
	queue  datagramQueue
	closed bool
	done   chan struct{}
}

// DialTCP connects to remoteAddr.
func DialTCP(remoteAddr string) (*TCPConn, error) {
	sock, err := net.Dial("tcp", remoteAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tcp: %w", err)
	}
	return newTCP(sock), nil
}

// ListenTCP accepts exactly one connection on localAddr and returns it. It
// is a convenience for the two-player sessions this system targets.
func ListenTCP(localAddr string) (*TCPConn, error) {
	l, err := net.Listen("tcp", localAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen tcp: %w", err)
	}
	defer l.Close()
	sock, err := l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCP(sock), nil
}

func newTCP(sock net.Conn) *TCPConn {
	if tc, ok := sock.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &TCPConn{sock: sock, done: make(chan struct{})}
	go c.readLoop()
	return c
}

func (c *TCPConn) readLoop() {
	defer close(c.done)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(c.sock, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxDatagram {
			return // corrupt or hostile framing: give up
		}
		p := make([]byte, n)
		if _, err := io.ReadFull(c.sock, p); err != nil {
			return
		}
		c.mu.Lock()
		if !c.closed {
			c.queue.push(p)
		}
		c.mu.Unlock()
	}
}

// Send implements Conn.
func (c *TCPConn) Send(p []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if len(p) > maxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds limit", len(p))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if _, err := c.sock.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: tcp write: %w", err)
	}
	if _, err := c.sock.Write(p); err != nil {
		return fmt.Errorf("transport: tcp write: %w", err)
	}
	return nil
}

// TryRecv implements Conn.
func (c *TCPConn) TryRecv() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.pop()
}

// Close implements Conn.
func (c *TCPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.sock.Close()
	<-c.done
	return err
}

// LocalAddr implements Conn.
func (c *TCPConn) LocalAddr() string { return c.sock.LocalAddr().String() }

// RemoteAddr implements Conn.
func (c *TCPConn) RemoteAddr() string { return c.sock.RemoteAddr().String() }

var _ Conn = (*TCPConn)(nil)
