// Package lobby implements the rendezvous mechanism the paper assumes for
// session setup (§2: "Some rendezvous mechanism is required for them to find
// each other, such as instant messenger and games lobby") and, beyond the
// paper, the admission/placement control plane for relay-hosted sessions.
//
// The protocol is a minimal UDP exchange. A client announces itself with
//
//	JOIN <session> <site>
//
// and the server replies, once both players of <session> are known, with
// either
//
//	PEER <site> <addr>
//
// telling each client the other's public address so the clients talk
// directly (the lobby is not in the game path), or — when the server is
// configured with a Placer and decides to host the session on a relay —
//
//	RELAY <token> <addr>
//
// telling both clients to send their token-prefixed game traffic to the
// relay front at <addr>. Messages are plain text for easy debugging with
// netcat.
//
// Two operational rules matter at scale:
//
//   - Rebinds are control-plane events. A re-JOIN from a new source address
//     overwrites the stored address, re-notifies both sites, and (for placed
//     sessions) forwards the rebind to the Placer; the relay data path never
//     re-learns addresses on its own.
//   - Expiry is clock-driven, not traffic-driven. A background sweep runs on
//     a ticker on the host clock, so abandoned sessions age out even when
//     the socket goes quiet, and the sessions map is capped at sessionCap.
package lobby

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Placement is a relay assignment for one session: the opaque token clients
// prefix on every datagram and the relay front address they dial.
type Placement struct {
	Token string
	Addr  string
}

// Placer is the hosting backend the lobby admits sessions onto (in practice
// relay.LobbyPlacer around a relay daemon; a test double in tests).
//
// Place reserves capacity for one two-site session. Rebind tells the backend
// a site's public address changed (the only path that may move an active
// session's return address). Release frees the reservation when the lobby
// expires the session.
type Placer interface {
	Place() (Placement, error)
	Rebind(token string, site int, addr net.Addr) error
	Release(token string) error
}

// The session table's bounds.
const (
	// sessionTTL is how long an idle session entry survives.
	sessionTTL = 10 * time.Minute
	// sweepPeriod is the background expiry cadence.
	sweepPeriod = 30 * time.Second
	// sessionCap bounds the sessions map; JOINs that would create an entry
	// beyond the cap are counted and dropped (the client retries and gets
	// in once a sweep frees space).
	sessionCap = 65536
)

// Config tunes a Server. The zero value means direct rendezvous.
type Config struct {
	// Placer, when non-nil, turns the lobby into an admission control plane:
	// paired sessions are placed on the backend and answered with RELAY
	// instead of PEER.
	Placer Placer

	// ttl, sweepEvery and maxSessions replace sessionTTL, sweepPeriod and
	// sessionCap when positive; only tests set them.
	ttl         time.Duration
	sweepEvery  time.Duration
	maxSessions int
}

func (c Config) withDefaults() Config {
	if c.ttl <= 0 {
		c.ttl = sessionTTL
	}
	if c.sweepEvery <= 0 {
		c.sweepEvery = sweepPeriod
	}
	if c.maxSessions <= 0 {
		c.maxSessions = sessionCap
	}
	return c
}

// session is one pending or hosted pairing.
type session struct {
	addrs    map[int]net.Addr // site -> announced address
	lastSeen time.Time
	placed   *Placement // non-nil once relay-hosted
}

// Server pairs clients by session code and, when configured with a Placer,
// admits them onto relay capacity.
type Server struct {
	pc  net.PacketConn
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	joins    int // well-formed JOINs handled
	notified int // PEER replies sent
	placed   int // RELAY replies sent
	rejected int // datagrams that failed to parse as JOIN
	expired  int // sessions dropped by the TTL sweep
	capped   int // JOINs dropped because the sessions map was full
	closed   bool
	done     chan struct{} // closed by Close; stops the sweeper
}

// Stats is a snapshot of the server's request counters.
type Stats struct {
	Joins          int // well-formed JOINs handled
	PeersNotified  int // PEER replies sent
	PlacedNotified int // RELAY replies sent
	Rejected       int // datagrams that failed to parse as JOIN
	SessionsActive int // session codes currently pending or hosted
	SessionsAged   int // sessions expired by the TTL sweep
	SessionsCapped int // JOINs dropped at the sessionCap cap
}

// Stats returns the server's counters; safe to call while Serve runs.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Joins:          s.joins,
		PeersNotified:  s.notified,
		PlacedNotified: s.placed,
		Rejected:       s.rejected,
		SessionsActive: len(s.sessions),
		SessionsAged:   s.expired,
		SessionsCapped: s.capped,
	}
}

// ListenConfig binds a lobby server to addr with explicit configuration.
func ListenConfig(addr string, cfg Config) (*Server, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("lobby: listen: %w", err)
	}
	return &Server{pc: pc, cfg: cfg.withDefaults(), sessions: make(map[string]*session), done: make(chan struct{})}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.pc.LocalAddr().String() }

// Serve handles rendezvous requests until Close. It also starts the expiry
// sweeper, so idle sessions age out even if no datagram ever arrives again.
func (s *Server) Serve() error {
	go s.sweepLoop()
	buf := make([]byte, 256)
	for {
		n, from, err := s.pc.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("lobby: read: %w", err)
		}
		s.handle(strings.TrimSpace(string(buf[:n])), from)
	}
}

// parseJoin validates a JOIN request. Split out (and fuzzed) because this is
// the only code that touches attacker-controlled bytes before any state.
func parseJoin(msg string) (code string, site int, ok bool) {
	fields := strings.Fields(msg)
	if len(fields) != 3 || fields[0] != "JOIN" {
		return "", 0, false
	}
	site, err := strconv.Atoi(fields[2])
	if err != nil || site < 0 || site > 63 {
		return "", 0, false
	}
	return fields[1], site, true
}

// Reply is a parsed server reply, used by the client helpers.
type Reply struct {
	Relay bool   // RELAY reply (Token/Addr set) vs PEER reply (Site/Addr set)
	Site  int    // PEER: the site being described
	Token string // RELAY: session token
	Addr  string // peer or relay front address
}

// parseReply decodes a PEER or RELAY server reply.
func parseReply(msg string) (Reply, bool) {
	fields := strings.Fields(msg)
	if len(fields) != 3 {
		return Reply{}, false
	}
	switch fields[0] {
	case "PEER":
		site, err := strconv.Atoi(fields[1])
		if err != nil || site < 0 || site > 63 {
			return Reply{}, false
		}
		return Reply{Site: site, Addr: fields[2]}, true
	case "RELAY":
		if fields[1] == "" {
			return Reply{}, false
		}
		return Reply{Relay: true, Token: fields[1], Addr: fields[2]}, true
	}
	return Reply{}, false
}

func (s *Server) handle(msg string, from net.Addr) {
	code, site, ok := parseJoin(msg)
	if !ok {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.joins++
	now := time.Now()
	sess, exists := s.sessions[code]
	if !exists {
		if len(s.sessions) >= s.cfg.maxSessions {
			// Try to make room before refusing admission.
			s.sweepLocked(now)
		}
		if len(s.sessions) >= s.cfg.maxSessions {
			s.capped++
			s.mu.Unlock()
			return
		}
		sess = &session{addrs: make(map[int]net.Addr)}
		s.sessions[code] = sess
	}
	sess.lastSeen = now
	prev := sess.addrs[site]
	sess.addrs[site] = from
	rebound := prev != nil && prev.String() != from.String()

	if s.cfg.Placer == nil {
		s.replyDirectLocked(sess)
		return // replyDirectLocked unlocks
	}
	s.replyPlacedLocked(code, sess, site, from, rebound) // unlocks
}

// replyDirectLocked is the paper's path: once two (or more) sites are
// present, tell everyone about everyone. A re-JOIN from a new address runs
// through here again, so both sites always hold the freshest peer address.
// Called with s.mu held; unlocks it.
func (s *Server) replyDirectLocked(sess *session) {
	type peerInfo struct {
		site int
		addr net.Addr
	}
	var peers []peerInfo
	if len(sess.addrs) >= 2 {
		for k, a := range sess.addrs {
			peers = append(peers, peerInfo{k, a})
		}
	}
	s.mu.Unlock()

	sent := 0
	for _, to := range peers {
		for _, other := range peers {
			if other.site == to.site {
				continue
			}
			reply := fmt.Sprintf("PEER %d %s", other.site, other.addr.String())
			_, _ = s.pc.WriteTo([]byte(reply), to.addr)
			sent++
		}
	}
	if sent > 0 {
		s.mu.Lock()
		s.notified += sent
		s.mu.Unlock()
	}
}

// replyPlacedLocked is the admission path: the first JOIN that completes the
// pair reserves relay capacity; every JOIN afterwards (including retries and
// rebinds) re-sends the cached placement to *both* sites at their current
// addresses. The placement is cached but the addresses are not assumed
// stable — answering only the first time, or answering stored-but-stale
// addresses, is exactly the rebind-staleness bug the regression tests pin.
// Called with s.mu held; unlocks it.
func (s *Server) replyPlacedLocked(code string, sess *session, site int, from net.Addr, rebound bool) {
	placer := s.cfg.Placer
	if sess.placed == nil && len(sess.addrs) >= 2 {
		p, err := placer.Place()
		if err != nil {
			// Backend full: drop the session so the map doesn't pin
			// unhostable pairs; clients retry and re-create it.
			delete(s.sessions, code)
			s.capped++
			s.mu.Unlock()
			return
		}
		sess.placed = &p
	}
	if sess.placed == nil {
		s.mu.Unlock()
		return // still waiting for the peer
	}
	p := *sess.placed
	type dest struct {
		site int
		addr net.Addr
	}
	var dests []dest
	for k, a := range sess.addrs {
		dests = append(dests, dest{k, a})
	}
	s.mu.Unlock()

	if rebound {
		// Control-plane rebind: the relay data path deliberately never
		// re-learns a slot address from traffic, so a moved client comes
		// back through here.
		_ = placer.Rebind(p.Token, site, from)
	}
	reply := []byte(fmt.Sprintf("RELAY %s %s", p.Token, p.Addr))
	sent := 0
	for _, d := range dests {
		_, _ = s.pc.WriteTo(reply, d.addr)
		sent++
	}
	if sent > 0 {
		s.mu.Lock()
		s.placed += sent
		s.mu.Unlock()
	}
}

// sweepLoop expires idle sessions on a ticker until Close. Before this
// existed, expiry ran only inside the datagram handler — a quiet socket let
// abandoned sessions (and their relay reservations) live forever.
func (s *Server) sweepLoop() {
	tick := time.NewTicker(s.cfg.sweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-tick.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			released := s.sweepLocked(now)
			s.mu.Unlock()
			for _, tok := range released {
				_ = s.cfg.Placer.Release(tok)
			}
		}
	}
}

// sweepLocked drops sessions idle past the TTL and returns the tokens of
// placed ones so the caller can release their relay reservations outside the
// lock. Callers hold s.mu.
func (s *Server) sweepLocked(now time.Time) (released []string) {
	for c, old := range s.sessions {
		if now.Sub(old.lastSeen) > s.cfg.ttl {
			if old.placed != nil {
				released = append(released, old.placed.Token)
			}
			delete(s.sessions, c)
			s.expired++
		}
	}
	return released
}

// Close stops Serve and the sweeper.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	return s.pc.Close()
}

// Rendezvous announces (session, site) to the lobby at serverAddr from a
// fresh UDP socket and waits until the peer's address is learned. It returns
// the local socket's address (to be reused for the game, so NAT bindings
// stay warm) and the peer address.
//
// The socket is unconnected; callers typically extract the local address,
// close it, and dial a connected socket toward peerAddr.
func Rendezvous(serverAddr, session string, site, peerSite int, timeout time.Duration) (localAddr, peerAddr string, err error) {
	localAddr, reply, err := rendezvous(serverAddr, session, site, timeout, func(r Reply) bool {
		return !r.Relay && r.Site == peerSite
	})
	if err != nil {
		return "", "", fmt.Errorf("lobby: timed out waiting for peer %d of session %q: %w", peerSite, session, err)
	}
	return localAddr, reply.Addr, nil
}

// RendezvousPlaced announces (session, site) and waits for a RELAY
// assignment from a placement-enabled lobby. The returned Placement names
// the relay front to dial and the token to prefix on every datagram.
func RendezvousPlaced(serverAddr, session string, site int, timeout time.Duration) (Placement, error) {
	_, reply, err := rendezvous(serverAddr, session, site, timeout, func(r Reply) bool {
		return r.Relay
	})
	if err != nil {
		return Placement{}, fmt.Errorf("lobby: timed out waiting for placement of session %q: %w", session, err)
	}
	return Placement{Token: reply.Token, Addr: reply.Addr}, nil
}

// rendezvous is the shared JOIN/await loop: re-announce every 200ms until a
// reply satisfying accept arrives or timeout elapses.
func rendezvous(serverAddr, session string, site int, timeout time.Duration, accept func(Reply) bool) (string, Reply, error) {
	raddr, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		return "", Reply{}, fmt.Errorf("resolve %q: %w", serverAddr, err)
	}
	sock, err := net.ListenUDP("udp", nil)
	if err != nil {
		return "", Reply{}, fmt.Errorf("bind: %w", err)
	}
	defer sock.Close()
	localAddr := sock.LocalAddr().String()

	join := []byte(fmt.Sprintf("JOIN %s %d", session, site))
	deadline := time.Now().Add(timeout)
	buf := make([]byte, 256)
	for time.Now().Before(deadline) {
		if _, err := sock.WriteTo(join, raddr); err != nil {
			return "", Reply{}, fmt.Errorf("send join: %w", err)
		}
		_ = sock.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := sock.ReadFrom(buf)
		if err != nil {
			continue // timeout: re-announce
		}
		if r, ok := parseReply(strings.TrimSpace(string(buf[:n]))); ok && accept(r) {
			return localAddr, r, nil
		}
	}
	return "", Reply{}, fmt.Errorf("deadline exceeded")
}
