package lobby_test

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"retrolock/internal/lobby"
	"retrolock/internal/obs"
	"retrolock/internal/relay"
)

// loopbackSocket is one client socket on 127.0.0.1.
func loopbackSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// joinPlaced speaks the lobby's text protocol from sock: it sends
// "JOIN <code> <site>" every 100 ms until a "RELAY <token> <addr>" reply
// arrives, and returns the placement.
func joinPlaced(sock *net.UDPConn, lobbyAddr, code string, site int) (lobby.Placement, error) {
	to, err := net.ResolveUDPAddr("udp", lobbyAddr)
	if err != nil {
		return lobby.Placement{}, err
	}
	buf := make([]byte, 256)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if _, err := sock.WriteTo([]byte(fmt.Sprintf("JOIN %s %d", code, site)), to); err != nil {
			return lobby.Placement{}, err
		}
		_ = sock.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		for {
			n, _, err := sock.ReadFrom(buf)
			if err != nil {
				break
			}
			if f := strings.Fields(string(buf[:n])); len(f) == 3 && f[0] == "RELAY" {
				return lobby.Placement{Token: f[1], Addr: f[2]}, nil
			}
		}
	}
	return lobby.Placement{}, fmt.Errorf("site %d: no RELAY reply from the lobby", site)
}

// relayed sends payload from site from's socket through the relay at addr
// until to's socket receives it, token and site intact. Each round to's
// socket also sends a header-only bind datagram, as relay.ClientConn does,
// so that the relay learns its slot.
func relayed(t *testing.T, addr string, tok relay.Token, from *net.UDPConn, fromSite int, to *net.UDPConn, payload string) {
	t.Helper()
	dst, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, relay.HeaderLen+len(payload))
	copy(msg[relay.PutHeader(msg, tok, fromSite):], payload)
	bind := make([]byte, relay.HeaderLen)
	relay.PutHeader(bind, tok, 1-fromSite)
	buf := make([]byte, relay.MaxDatagram)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		_, _ = to.WriteTo(bind, dst)
		_, _ = from.WriteTo(msg, dst)
		_ = to.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		for {
			n, _, err := to.ReadFrom(buf)
			if err != nil {
				break
			}
			if got, site, p, ok := relay.ParseHeader(buf[:n]); ok && got == tok && site == fromSite && string(p) == payload {
				return
			}
		}
	}
	t.Fatalf("%q from site %d never reached site %d through the relay", payload, fromSite, 1-fromSite)
}

// TestLobbyPlacerOverLoopback wires a real lobby.Server to a real Daemon
// through LobbyPlacer, as cmd/relayd does, and drives both with clients on
// loopback sockets that speak the lobby's text protocol and the relay
// header. It covers a placement, a re-JOIN from a new port that must move
// the session's return path (the relay's data path never re-learns an
// address), and a lobby expiry that must release the relay's reservation.
func TestLobbyPlacerOverLoopback(t *testing.T) {
	front, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	d, err := relay.NewDaemon(relay.Config{Shards: 2, Stats: true}, []relay.Front{front})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Close() })
	// The session TTL outlasts the placement and rebind steps under load.
	srv, err := lobby.ListenConfig("127.0.0.1:0",
		lobby.WithExpiry(lobby.Config{Placer: relay.LobbyPlacer{D: d}}, 1500*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	reg := obs.NewRegistry()
	relay.RegisterMetrics(reg, d)
	lobby.RegisterMetrics(reg, srv)

	// Placement: both sites JOIN one code and get the same relay session.
	const code = "placer-test"
	socks := [2]*net.UDPConn{loopbackSocket(t), loopbackSocket(t)}
	var placed [2]lobby.Placement
	errs := make(chan error, 2)
	for site := range socks {
		go func() {
			var err error
			placed[site], err = joinPlaced(socks[site], srv.Addr(), code, site)
			errs <- err
		}()
	}
	for range socks {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if placed[0] != placed[1] {
		t.Fatalf("the sites were placed apart: %+v and %+v", placed[0], placed[1])
	}
	if want := d.Shards()[0].Addr(); placed[0].Addr != want {
		t.Errorf("placed on %s, want the front %s", placed[0].Addr, want)
	}
	if n := d.Sessions(); n != 1 {
		t.Fatalf("the relay hosts %d sessions after one placement, want 1", n)
	}
	tok, err := relay.ParseToken(placed[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	relayed(t, placed[0].Addr, tok, socks[0], 0, socks[1], "ping")
	relayed(t, placed[0].Addr, tok, socks[1], 1, socks[0], "pong")

	// Rebind: site 0 re-JOINs from a new port. Only the lobby's Rebind can
	// move its slot there; the relay drops the new port's own datagrams as
	// spoofed until then.
	moved := loopbackSocket(t)
	if p, err := joinPlaced(moved, srv.Addr(), code, 0); err != nil || p != placed[0] {
		t.Fatalf("re-JOIN from a new port: placement %+v, %v; want %+v", p, err, placed[0])
	}
	relayed(t, placed[0].Addr, tok, socks[1], 1, moved, "moved")

	// Expiry: with no more JOINs the lobby's sweep expires the session and
	// releases it on the relay.
	for deadline := time.Now().Add(5 * time.Second); d.Sessions() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the relay still hosts %d sessions after the lobby's TTL", d.Sessions())
		}
	}
	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		lobby.MetricSessionsAged:                   1,
		lobby.MetricSessionsActive:                 0,
		relay.MetricSessionsActive + `{shard="0"}`: 0,
		relay.MetricSessionsActive + `{shard="1"}`: 0,
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if snap[lobby.MetricPlaced] < 4 {
		t.Errorf("%s = %v, want at least 4 (two sites, placed and re-placed)", lobby.MetricPlaced, snap[lobby.MetricPlaced])
	}
}
