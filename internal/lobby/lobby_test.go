package lobby

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) *Server {
	return startServerConfig(t, Config{})
}

func startServerConfig(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := ListenConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestRendezvousPairsTwoClients(t *testing.T) {
	srv := startServer(t)

	type result struct {
		local, peer string
		err         error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, p, err := Rendezvous(srv.Addr(), "game42", site, 1-site, 5*time.Second)
			results[site] = result{l, p, err}
		}()
	}
	wg.Wait()
	for site, r := range results {
		if r.err != nil {
			t.Fatalf("site %d: %v", site, r.err)
		}
	}
	// Each site must have learned the other's socket (the local bind is a
	// wildcard address, so compare ports).
	port := func(addr string) string {
		_, p, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("bad address %q: %v", addr, err)
		}
		return p
	}
	if port(results[0].peer) != port(results[1].local) {
		t.Errorf("site 0 got peer %q, site 1 announced %q", results[0].peer, results[1].local)
	}
	if port(results[1].peer) != port(results[0].local) {
		t.Errorf("site 1 got peer %q, site 0 announced %q", results[1].peer, results[0].local)
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	srv := startServer(t)

	done := make(chan error, 1)
	go func() {
		_, _, err := Rendezvous(srv.Addr(), "sessionA", 0, 1, 700*time.Millisecond)
		done <- err
	}()
	// A client of a different session must not pair with sessionA.
	go func() {
		_, _, _ = Rendezvous(srv.Addr(), "sessionB", 1, 0, 700*time.Millisecond)
	}()
	if err := <-done; err == nil {
		t.Fatal("clients of different sessions were paired")
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, msg := range []string{"", "HELLO", "JOIN onlytwo", "JOIN s notanumber", "JOIN s 999"} {
		if _, err := conn.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	// The server must still pair valid clients afterwards.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for site := 0; site < 2; site++ {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[site] = Rendezvous(srv.Addr(), "after-garbage", site, 1-site, 5*time.Second)
		}()
	}
	wg.Wait()
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d after garbage: %v", site, err)
		}
	}
}

func TestRendezvousTimesOutAlone(t *testing.T) {
	srv := startServer(t)
	start := time.Now()
	_, _, err := Rendezvous(srv.Addr(), "lonely", 0, 1, 500*time.Millisecond)
	if err == nil {
		t.Fatal("lonely client paired with nobody")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) < 450*time.Millisecond {
		t.Fatal("returned before the timeout elapsed")
	}
}

func TestThreeSiteSession(t *testing.T) {
	// Two players and an observer all in one session: every client learns
	// the address of every other site it asks for.
	srv := startServer(t)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	// Site 0 waits for site 1; the observer (site 2) waits for site 0.
	pairs := [][2]int{{0, 1}, {1, 0}, {2, 0}}
	for i, p := range pairs {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = Rendezvous(srv.Addr(), "trio", p[0], p[1], 5*time.Second)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// TestIdleSessionsExpireWithoutTraffic is the regression test for the sweep
// starvation bug: expiry used to run only inside the datagram handler, so a
// lobby whose socket went quiet kept abandoned sessions forever. The ticker
// sweep must collect them with no further traffic at all.
func TestIdleSessionsExpireWithoutTraffic(t *testing.T) {
	srv := startServerConfig(t, Config{ttl: 50 * time.Millisecond, sweepEvery: 10 * time.Millisecond})

	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("JOIN ghost 0")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().SessionsActive == 1 })

	// Total silence from here on. Only the clock-driven sweep can act.
	waitFor(t, 2*time.Second, func() bool {
		st := srv.Stats()
		return st.SessionsActive == 0 && st.SessionsAged == 1
	})
}

// sweepers counts the goroutines running a Server's sweep loop.
func sweepers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "lobby.(*Server).sweepLoop(")
}

// TestCloseStopsSweeper: Close ends the sweeper goroutine at once, not
// after its next sweep period (an hour here), and Serve returns.
func TestCloseStopsSweeper(t *testing.T) {
	srv, err := ListenConfig("127.0.0.1:0", Config{sweepEvery: time.Hour})
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	waitFor(t, 2*time.Second, func() bool { return sweepers() == 1 })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	waitFor(t, time.Second, func() bool { return sweepers() == 0 })
	_ = srv.Close() // a second Close is harmless
}

// TestSessionsCapBoundsMap: JOINs that would grow the map past maxSessions
// are counted and dropped, and space frees up once old entries expire.
func TestSessionsCapBoundsMap(t *testing.T) {
	srv := startServerConfig(t, Config{ttl: time.Hour, sweepEvery: time.Hour, maxSessions: 3})

	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 8; i++ {
		if _, err := conn.Write([]byte(fmt.Sprintf("JOIN flood-%d 0", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		st := srv.Stats()
		return st.SessionsActive == 3 && st.SessionsCapped == 5
	})
}

func waitFor(t *testing.T, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// fakePlacer is a Placer test double recording every call.
type fakePlacer struct {
	mu       sync.Mutex
	placings int
	rebinds  []string // "token/site/addr"
	released []string
	full     bool
}

func (p *fakePlacer) Place() (Placement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.full {
		return Placement{}, fmt.Errorf("backend full")
	}
	p.placings++
	return Placement{Token: fmt.Sprintf("%016x", p.placings), Addr: "127.0.0.1:9999"}, nil
}

func (p *fakePlacer) Rebind(token string, site int, addr net.Addr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rebinds = append(p.rebinds, fmt.Sprintf("%s/%d/%s", token, site, addr))
	return nil
}

func (p *fakePlacer) Release(token string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.released = append(p.released, token)
	return nil
}

func TestRendezvousPlacedPairsTwoClients(t *testing.T) {
	placer := &fakePlacer{}
	srv := startServerConfig(t, Config{Placer: placer})

	results := make([]Placement, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[site], errs[site] = RendezvousPlaced(srv.Addr(), "hosted42", site, 5*time.Second)
		}()
	}
	wg.Wait()
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("sites got different placements: %+v vs %+v", results[0], results[1])
	}
	if results[0].Token == "" || results[0].Addr != "127.0.0.1:9999" {
		t.Fatalf("bad placement %+v", results[0])
	}
	placer.mu.Lock()
	defer placer.mu.Unlock()
	if placer.placings != 1 {
		t.Fatalf("Place called %d times for one session (retries must reuse the cached placement)", placer.placings)
	}
}

// TestPlacedRebindRenotifiesBothSites is the regression test for the lobby
// rebind-staleness bug: when a placed client re-JOINs from a new source
// address (NAT rebinding, network change), the server must overwrite the
// stored address, answer the *new* address with the same placement, and
// re-notify the peer — a naive placement cache that replied only on first
// placement, or replied to the stale stored address, left the moved client
// deaf and the relay pointed at a dead return path.
func TestPlacedRebindRenotifiesBothSites(t *testing.T) {
	placer := &fakePlacer{}
	srv := startServerConfig(t, Config{Placer: placer})

	// Both sites join from stable sockets and get placed.
	sock := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	raddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	join := func(c *net.UDPConn, site int) {
		if _, err := c.WriteTo([]byte(fmt.Sprintf("JOIN rebind %d", site)), raddr); err != nil {
			t.Fatal(err)
		}
	}
	awaitRelay := func(c *net.UDPConn) Placement {
		t.Helper()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		for {
			n, _, err := c.ReadFrom(buf)
			if err != nil {
				t.Fatalf("no RELAY reply: %v", err)
			}
			if r, ok := parseReply(strings.TrimSpace(string(buf[:n]))); ok && r.Relay {
				return Placement{Token: r.Token, Addr: r.Addr}
			}
		}
	}
	s0, s1 := sock(), sock()
	join(s0, 0)
	join(s1, 1)
	p0, p1 := awaitRelay(s0), awaitRelay(s1)
	if p0 != p1 {
		t.Fatalf("initial placements differ: %+v vs %+v", p0, p1)
	}

	// Site 0 "moves": a new socket (new source address) re-JOINs.
	s0b := sock()
	join(s0b, 0)

	// The moved client must hear the same placement at its NEW address…
	pMoved := awaitRelay(s0b)
	if pMoved != p0 {
		t.Fatalf("placement changed across rebind: %+v vs %+v", pMoved, p0)
	}
	// …the peer must be re-notified…
	pPeer := awaitRelay(s1)
	if pPeer != p0 {
		t.Fatalf("peer re-notify placement mismatch: %+v vs %+v", pPeer, p0)
	}
	// …and the backend must have been told about the rebind.
	want := fmt.Sprintf("%s/0/%s", p0.Token, s0b.LocalAddr())
	waitFor(t, 2*time.Second, func() bool {
		placer.mu.Lock()
		defer placer.mu.Unlock()
		for _, r := range placer.rebinds {
			if r == want {
				return true
			}
		}
		return false
	})
}

// TestPlacedSessionReleaseOnExpiry: when the sweep expires a hosted session,
// the relay reservation is released.
func TestPlacedSessionReleaseOnExpiry(t *testing.T) {
	placer := &fakePlacer{}
	srv := startServerConfig(t, Config{ttl: 50 * time.Millisecond, sweepEvery: 10 * time.Millisecond, Placer: placer})

	results := make([]Placement, 2)
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[site], _ = RendezvousPlaced(srv.Addr(), "shortlived", site, 5*time.Second)
		}()
	}
	wg.Wait()
	waitFor(t, 2*time.Second, func() bool {
		placer.mu.Lock()
		defer placer.mu.Unlock()
		for _, tok := range placer.released {
			if tok == results[0].Token {
				return true
			}
		}
		return false
	})
}

// TestConcurrentJoinExpireStats hammers the server with >=1k interleaved
// JOIN/expire/Stats cycles; run under -race it pins down the locking of the
// handler, the ticker sweep, and the stats snapshot against each other.
func TestConcurrentJoinExpireStats(t *testing.T) {
	placer := &fakePlacer{}
	srv := startServerConfig(t, Config{
		ttl:         2 * time.Millisecond,
		sweepEvery:  time.Millisecond,
		maxSessions: 64,
		Placer:      placer,
	})

	const (
		workers = 8
		cycles  = 150 // 8*150 = 1200 interleaved JOIN cycles
	)
	var wg, statsWg sync.WaitGroup
	stop := make(chan struct{})
	// Stats readers race the handler and the sweeper until the joiners are
	// done (their own WaitGroup — they only exit once stop closes).
	for i := 0; i < 2; i++ {
		statsWg.Add(1)
		go func() {
			defer statsWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := srv.Stats()
					if st.SessionsActive > 64 {
						t.Errorf("sessions map exceeded cap: %d", st.SessionsActive)
						return
					}
				}
			}
		}()
	}
	// Joiners drive the handler directly (no UDP loss, deterministic count);
	// sessions churn so the sweeper constantly expires behind them.
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				code := fmt.Sprintf("s%d-%d", w, c%40)
				addr := &net.UDPAddr{IP: net.IPv4(10, 0, byte(w), byte(c)), Port: 1000 + c}
				srv.handle(fmt.Sprintf("JOIN %s %d", code, c%2), addr)
				if c%50 == 0 {
					time.Sleep(time.Millisecond) // let the sweeper in
				}
			}
		}()
	}
	// A real socket client in the mix exercises the reply path end to end.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = RendezvousPlaced(srv.Addr(), "s0-0", 1, 2*time.Second)
	}()
	wg.Wait()
	close(stop)
	statsWg.Wait()

	st := srv.Stats()
	if st.Joins < workers*cycles {
		t.Fatalf("Joins = %d, want >= %d", st.Joins, workers*cycles)
	}
	if st.SessionsActive > 64 {
		t.Fatalf("sessions map exceeded cap: %d", st.SessionsActive)
	}
}
