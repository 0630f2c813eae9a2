package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// UDPListener owns one unconnected UDP socket and demultiplexes incoming
// datagrams by source address into per-peer Conns, so a single game port can
// serve the opponent and any number of live spectators (the journal
// version's observers). Outbound traffic from every derived Conn shares the
// socket. Peers are keyed by netip.AddrPort, IPv4 unmapped, so neither a
// send nor the demultiplexing of a receive allocates for the address.
type UDPListener struct {
	sock *net.UDPConn

	mu     sync.Mutex
	conns  map[netip.AddrPort]*UDPPeerConn
	accept chan *UDPPeerConn
	closed bool
	done   chan struct{}
}

// acceptBacklog bounds how many not-yet-accepted peers may queue.
const acceptBacklog = 16

// ListenUDPAddr binds an unconnected UDP socket on localAddr.
func ListenUDPAddr(localAddr string) (*UDPListener, error) {
	laddr, err := net.ResolveUDPAddr("udp", localAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", localAddr, err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp: %w", err)
	}
	l := &UDPListener{
		sock:   sock,
		conns:  make(map[netip.AddrPort]*UDPPeerConn),
		accept: make(chan *UDPPeerConn, acceptBacklog),
		done:   make(chan struct{}),
	}
	go l.readLoop()
	return l, nil
}

// Addr returns the bound local address.
func (l *UDPListener) Addr() string { return l.sock.LocalAddr().String() }

// Conn returns (creating if needed) the connection for a known peer
// address. Use it for the opponent whose address is agreed upon in advance;
// unsolicited senders surface through Accept instead.
func (l *UDPListener) Conn(peerAddr string) (*UDPPeerConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", peerAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", peerAddr, err)
	}
	peer := unmapAddrPort(raddr.AddrPort())
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if c, ok := l.conns[peer]; ok {
		return c, nil
	}
	c := &UDPPeerConn{listener: l, peer: peer}
	l.conns[peer] = c
	return c, nil
}

// Accept returns the next connection initiated by an unknown sender (e.g. a
// spectator's join request), or ok=false once the listener closes.
func (l *UDPListener) Accept() (*UDPPeerConn, bool) {
	c, ok := <-l.accept
	return c, ok
}

func (l *UDPListener) readLoop() {
	defer close(l.done)
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := l.sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue // transient (ICMP unreachable etc.)
		}
		// The copy is the datagram's one allocation: TryRecv hands the
		// caller a payload it owns.
		p := make([]byte, n)
		copy(p, buf[:n])

		from = unmapAddrPort(from)
		l.mu.Lock()
		c, known := l.conns[from]
		if !known && !l.closed {
			c = &UDPPeerConn{listener: l, peer: from}
			l.conns[from] = c
			select {
			case l.accept <- c:
			default:
				// Backlog full: drop the newcomer's state; its
				// retransmissions will retry.
				delete(l.conns, from)
				c = nil
			}
		}
		l.mu.Unlock()
		if c != nil {
			c.enqueue(p)
		}
	}
}

// Close shuts the socket and every derived connection.
func (l *UDPListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.sock.Close()
	<-l.done
	close(l.accept)
	return err
}

// unmapAddrPort canonicalises ap so that a v4 peer has one key whether it
// was resolved from a string or read off a dual-stack socket.
func unmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// UDPPeerConn is one peer's view of a shared UDPListener socket.
type UDPPeerConn struct {
	listener *UDPListener
	peer     netip.AddrPort

	mu     sync.Mutex
	queue  datagramQueue
	closed bool
}

func (c *UDPPeerConn) enqueue(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.queue.push(p)
}

// Send implements Conn.
func (c *UDPPeerConn) Send(p []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	_, err := c.listener.sock.WriteToUDPAddrPort(p, c.peer)
	if err != nil {
		return nil // transient, like a raw socket send
	}
	return nil
}

// TryRecv implements Conn.
func (c *UDPPeerConn) TryRecv() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.pop()
}

// Close detaches this peer from the listener (the socket stays open for the
// other peers).
func (c *UDPPeerConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.queue = nil
	c.mu.Unlock()
	c.listener.mu.Lock()
	delete(c.listener.conns, c.peer)
	c.listener.mu.Unlock()
	return nil
}

// LocalAddr implements Conn.
func (c *UDPPeerConn) LocalAddr() string { return c.listener.Addr() }

// RemoteAddr implements Conn.
func (c *UDPPeerConn) RemoteAddr() string { return c.peer.String() }

var _ Conn = (*UDPPeerConn)(nil)
