package transport

import (
	"testing"
	"time"
)

func TestUDPListenerKnownPeer(t *testing.T) {
	lst, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer lst.Close()

	client, err := DialUDP("127.0.0.1:0", lst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	server, err := lst.Conn(client.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}

	if err := server.Send([]byte("hi client")); err != nil {
		t.Fatal(err)
	}
	if p := waitRecv(t, client, 2*time.Second); string(p) != "hi client" {
		t.Fatalf("client got %q", p)
	}
	if err := client.Send([]byte("hi server")); err != nil {
		t.Fatal(err)
	}
	if p := waitRecv(t, server, 2*time.Second); string(p) != "hi server" {
		t.Fatalf("server got %q", p)
	}
	// The known peer must not surface through Accept.
	if c, ok := acceptWithin(lst, 50*time.Millisecond); ok {
		t.Fatalf("known peer surfaced via Accept: %v", c.RemoteAddr())
	}
}

// acceptWithin waits up to d for lst.Accept. A caller that gives up leaves
// the Accept running until the listener closes.
func acceptWithin(lst *UDPListener, d time.Duration) (*UDPPeerConn, bool) {
	got := make(chan *UDPPeerConn, 1)
	go func() {
		if c, ok := lst.Accept(); ok {
			got <- c
		}
	}()
	select {
	case c := <-got:
		return c, true
	case <-time.After(d):
		return nil, false
	}
}

func TestUDPListenerAcceptsUnknownSender(t *testing.T) {
	lst, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer lst.Close()

	stranger, err := DialUDP("127.0.0.1:0", lst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := stranger.Send([]byte("join please")); err != nil {
		t.Fatal(err)
	}

	acceptCh := make(chan *UDPPeerConn, 1)
	go func() {
		c, ok := lst.Accept()
		if ok {
			acceptCh <- c
		}
	}()
	select {
	case c := <-acceptCh:
		if p := waitRecv(t, c, 2*time.Second); string(p) != "join please" {
			t.Fatalf("accepted conn got %q", p)
		}
		if c.RemoteAddr() != stranger.LocalAddr() {
			t.Fatalf("remote addr %s, want %s", c.RemoteAddr(), stranger.LocalAddr())
		}
		// Bidirectional after accept.
		if err := c.Send([]byte("welcome")); err != nil {
			t.Fatal(err)
		}
		if p := waitRecv(t, stranger, 2*time.Second); string(p) != "welcome" {
			t.Fatalf("stranger got %q", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Accept never fired")
	}
}

func TestUDPListenerMultiplePeersIsolated(t *testing.T) {
	lst, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer lst.Close()

	a, err := DialUDP("127.0.0.1:0", lst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialUDP("127.0.0.1:0", lst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	connA, err := lst.Conn(a.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	connB, err := lst.Conn(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Send([]byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if p := waitRecv(t, connA, 2*time.Second); string(p) != "from-a" {
		t.Fatalf("connA got %q (cross-peer leak?)", p)
	}
	if p := waitRecv(t, connB, 2*time.Second); string(p) != "from-b" {
		t.Fatalf("connB got %q (cross-peer leak?)", p)
	}
	if _, ok := connA.TryRecv(); ok {
		t.Fatal("connA received a second datagram; demux leaked")
	}
}

func TestUDPPeerConnCloseDetaches(t *testing.T) {
	lst, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer lst.Close()
	client, err := DialUDP("127.0.0.1:0", lst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	c, err := lst.Conn(client.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	// A fresh datagram from the same source re-surfaces via Accept (the
	// peer was forgotten).
	if err := client.Send([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, ok := acceptWithin(lst, 2*time.Second); !ok {
		t.Fatal("closed peer did not re-surface through Accept")
	}
}

func TestUDPListenerCloseUnblocksAccept(t *testing.T) {
	lst, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := lst.Accept()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	if err := lst.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Accept returned a conn after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	if _, err := lst.Conn("127.0.0.1:1"); err != ErrClosed {
		t.Fatalf("Conn after Close = %v, want ErrClosed", err)
	}
}

// waitRecv polls a Conn until a datagram arrives or the deadline passes.
func waitRecv(t *testing.T, c Conn, d time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if p, ok := c.TryRecv(); ok {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a datagram")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPDatagramAllocs pins the real-socket lockstep path's allocation
// cost: one loopback datagram through Send, the receiving conn's reader
// goroutine and TryRecv allocates at most once — the owned copy of the
// payload that TryRecv hands its caller. It runs between two listeners'
// peer conns and in both directions between a dialed conn and a
// listener's. Addresses travel as netip.AddrPort values, so neither a send
// nor the listener's demultiplexing allocates for them.
func TestUDPDatagramAllocs(t *testing.T) {
	la, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer la.Close()
	lb, err := ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	dialed, err := DialUDP("127.0.0.1:0", la.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	peer := func(l *UDPListener, addr string) Conn {
		c, err := l.Conn(addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	p := []byte("frame 42: inputs 0x1f00")
	for _, tc := range []struct {
		name     string
		from, to Conn
	}{
		{"listener to listener", peer(la, lb.Addr()), peer(lb, la.Addr())},
		{"dialed to listener", dialed, peer(la, dialed.LocalAddr())},
		{"listener to dialed", peer(la, dialed.LocalAddr()), dialed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deadline := time.Now().Add(time.Minute)
			hop := func() {
				if err := tc.from.Send(p); err != nil {
					t.Fatal(err)
				}
				for {
					if q, ok := tc.to.TryRecv(); ok {
						if len(q) != len(p) {
							t.Fatalf("received %d bytes, want %d", len(q), len(p))
						}
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("timed out waiting for a datagram")
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
			for i := 0; i < 10; i++ {
				hop()
			}
			if allocs := testing.AllocsPerRun(200, hop); allocs > 1 {
				t.Fatalf("a loopback datagram (%s) allocates %v, want at most 1 (the payload copy)", tc.name, allocs)
			}
		})
	}
}
