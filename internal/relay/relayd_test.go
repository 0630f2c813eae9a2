package relay

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"retrolock/internal/lobby"
	"retrolock/internal/obs"
)

// startRelayd builds a daemon on one loopback UDP front with fleet stats on
// and starts it, as cmd/relayd does.
func startRelayd(t *testing.T) *Daemon {
	t.Helper()
	front, err := ListenUDPFront("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	d, err := NewDaemon(Config{Shards: 2, Stats: true}, []Front{front})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to want, and fails with every stack if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the relay, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestFleetRealLoop runs the fleet's wall-clock loop as relayd does: Start
// after the daemon's, then at shutdown the daemon's Close and the fleet's.
// The loop must tick, stop at either Close without waiting for its next
// tick (relayd's window is a second, and its shutdown flush follows), and
// leave no goroutine behind.
func TestFleetRealLoop(t *testing.T) {
	before := runtime.NumGoroutine()

	d := startRelayd(t)
	fl, err := NewFleet(d, FleetConfig{Window: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	for deadline := time.Now().Add(5 * time.Second); fl.Snapshot().AtNs == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fleet loop never ticked")
		}
	}
	fl.Close()
	_ = d.Close()
	waitGoroutines(t, before)

	for _, tc := range []struct {
		name string
		stop func(d *Daemon, fl *Fleet)
	}{
		{"fleet Close", func(_ *Daemon, fl *Fleet) { fl.Close() }},
		{"daemon Close, then fleet Close", func(d *Daemon, fl *Fleet) { _ = d.Close(); fl.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			d := startRelayd(t)
			fl, err := NewFleet(d, FleetConfig{Window: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			fl.Start()
			time.Sleep(50 * time.Millisecond) // let the loop reach its wait
			stopped := make(chan struct{})
			go func() {
				tc.stop(d, fl)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				t.Fatal("the fleet loop waits for its next tick before it stops")
			}
			_ = d.Close()
			waitGoroutines(t, before)
		})
	}
}

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
func relayed(t *testing.T, addr string, tok Token, from *net.UDPConn, fromSite int, to *net.UDPConn, payload string) {
	t.Helper()
	relay, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, HeaderLen+len(payload))
	copy(msg[PutHeader(msg, tok, fromSite):], payload)
	bind := make([]byte, HeaderLen)
	PutHeader(bind, tok, 1-fromSite)
	buf := make([]byte, MaxDatagram)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		_, _ = to.WriteTo(bind, relay)
		_, _ = from.WriteTo(msg, relay)
		_ = to.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		for {
			n, _, err := to.ReadFrom(buf)
			if err != nil {
				break
			}
			if got, site, p, ok := ParseHeader(buf[:n]); ok && got == tok && site == fromSite && string(p) == payload {
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
	d := startRelayd(t)
	srv, err := lobby.ListenConfig("127.0.0.1:0", lobby.Config{
		TTL:        1500 * time.Millisecond, // outlasts the placement and rebind steps under load
		SweepEvery: 20 * time.Millisecond,
		Placer:     LobbyPlacer{D: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	reg := obs.NewRegistry()
	RegisterMetrics(reg, d)
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
	tok, err := ParseToken(placed[0].Token)
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
		lobby.MetricSessionsAged:             1,
		lobby.MetricSessionsActive:           0,
		MetricSessionsActive + `{shard="0"}`: 0,
		MetricSessionsActive + `{shard="1"}`: 0,
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if snap[lobby.MetricPlaced] < 4 {
		t.Errorf("%s = %v, want at least 4 (two sites, placed and re-placed)", lobby.MetricPlaced, snap[lobby.MetricPlaced])
	}
}
