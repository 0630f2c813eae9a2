package relay

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"retrolock/internal/vclock"
)

func TestTokenRoundTrip(t *testing.T) {
	for _, shard := range []int{0, 1, 7, MaxShards - 1} {
		tok := MakeToken(shard, 12345, 0xdeadbeef)
		if got := tok.ShardIndex(); got != shard {
			t.Fatalf("ShardIndex = %d, want %d", got, shard)
		}
		back, err := ParseToken(tok.String())
		if err != nil {
			t.Fatalf("ParseToken(%q): %v", tok.String(), err)
		}
		if back != tok {
			t.Fatalf("round trip %q: got %016x want %016x", tok.String(), uint64(back), uint64(tok))
		}
	}
	if _, err := ParseToken("nothexnothexnotx"); err == nil {
		t.Fatal("ParseToken accepted garbage")
	}
	if _, err := ParseToken("123"); err == nil {
		t.Fatal("ParseToken accepted a short token")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, HeaderLen+5)
	tok := MakeToken(3, 9, 0x42)
	n := PutHeader(buf, tok, 1)
	copy(buf[n:], "hello")
	gotTok, gotSite, payload, ok := ParseHeader(buf)
	if !ok || gotTok != tok || gotSite != 1 || string(payload) != "hello" {
		t.Fatalf("ParseHeader = %v %d %q ok=%v", gotTok, gotSite, payload, ok)
	}
	if _, _, _, ok := ParseHeader(buf[:HeaderLen-1]); ok {
		t.Fatal("ParseHeader accepted a runt")
	}
}

// memFront is a Front test double: sends are captured, receives are fed by
// the test.
type memFront struct {
	addr string
	sent []Message
}

func (f *memFront) Recv(ms []Message) (int, error) { return 0, nil }
func (f *memFront) Send(ms []Message) (int, error) {
	for _, m := range ms {
		f.sent = append(f.sent, Message{Buf: append([]byte(nil), m.Buf...), Addr: m.Addr})
	}
	return len(ms), nil
}
func (f *memFront) LocalAddr() string { return f.addr }
func (f *memFront) Close() error      { return nil }

func simAddr(name string) Addr { return Addr{Sim: name} }

// mkMsg builds a relayed datagram as a reader would deliver it to a shard.
func mkMsg(tok Token, site int, payload string, from Addr) Message {
	buf := getBuf()
	n := PutHeader(buf, tok, site)
	n += copy(buf[n:], payload)
	return Message{Buf: buf[:n], Addr: from}
}

// newTestDaemon returns a daemon over a memFront plus the front for
// inspection. Shards are stepped manually.
func newTestDaemon(t *testing.T, cfg Config) (*Daemon, *memFront) {
	t.Helper()
	front := &memFront{addr: "relay0"}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(time.Unix(0, 0))
	}
	d, err := NewDaemon(cfg, []Front{front})
	if err != nil {
		t.Fatal(err)
	}
	return d, front
}

func place(t *testing.T, d *Daemon) (Token, *Shard) {
	t.Helper()
	p, err := d.Place()
	if err != nil {
		t.Fatal(err)
	}
	sh := d.Shards()[p.Token.ShardIndex()]
	sh.Step() // apply the registration
	return p.Token, sh
}

func TestForwardBetweenBoundSites(t *testing.T) {
	d, front := newTestDaemon(t, Config{Shards: 2})
	tok, sh := place(t, d)

	sh.push(mkMsg(tok, 0, "from-zero", simAddr("clientA")))
	sh.push(mkMsg(tok, 1, "from-one", simAddr("clientB")))
	sh.Step()

	// site 0's first datagram was parked (site 1 unbound at ingest time),
	// then flushed when site 1 bound within the same step.
	if len(front.sent) != 2 {
		t.Fatalf("sent %d datagrams, want 2", len(front.sent))
	}
	for _, m := range front.sent {
		gotTok, site, payload, ok := ParseHeader(m.Buf)
		if !ok || gotTok != tok {
			t.Fatalf("forwarded datagram lost its prefix: %v", m.Buf)
		}
		switch m.Addr {
		case simAddr("clientB"):
			if site != 0 || string(payload) != "from-zero" {
				t.Fatalf("to clientB: site=%d payload=%q", site, payload)
			}
		case simAddr("clientA"):
			if site != 1 || string(payload) != "from-one" {
				t.Fatalf("to clientA: site=%d payload=%q", site, payload)
			}
		default:
			t.Fatalf("forwarded to unexpected addr %v", m.Addr)
		}
	}
	if got := sh.Forwarded(); got != 2 {
		t.Fatalf("Forwarded = %d, want 2", got)
	}
}

// TestSpoofedSourceDoesNotRebindPeer is the regression test for the
// demux-front spoofing bug: a datagram carrying a valid session token from
// an unexpected source address must be counted and dropped — before the
// fix, the ingest path treated any valid token as authoritative and
// re-learned the slot's address from it, so a spoofer could steal an active
// session's return path mid-game.
func TestSpoofedSourceDoesNotRebindPeer(t *testing.T) {
	d, front := newTestDaemon(t, Config{Shards: 1})
	tok, sh := place(t, d)

	// Both sites bind from their genuine addresses.
	sh.push(mkMsg(tok, 0, "hello", simAddr("realA")))
	sh.push(mkMsg(tok, 1, "hi", simAddr("realB")))
	sh.Step()
	front.sent = nil

	// A spoofer replays site 1's token/site from its own address.
	sh.push(mkMsg(tok, 1, "evil", simAddr("spoofer")))
	sh.Step()
	if len(front.sent) != 0 {
		t.Fatalf("spoofed datagram was forwarded: %v", front.sent)
	}
	if got := sh.SpoofRejected(); got != 1 {
		t.Fatalf("SpoofRejected = %d, want 1", got)
	}

	// Site 0 keeps talking; its traffic must still reach the *real* site 1
	// address, not the spoofer's.
	sh.push(mkMsg(tok, 0, "still-here", simAddr("realA")))
	sh.Step()
	if len(front.sent) != 1 {
		t.Fatalf("sent %d datagrams, want 1", len(front.sent))
	}
	if front.sent[0].Addr != simAddr("realB") {
		t.Fatalf("peer traffic went to %v — the spoofer rebound the session", front.sent[0].Addr)
	}
}

func TestRejectCounters(t *testing.T) {
	d, front := newTestDaemon(t, Config{Shards: 1})
	tok, sh := place(t, d)

	// Unknown token (valid shard index, no session).
	sh.push(mkMsg(MakeToken(0, 999, 1), 0, "x", simAddr("a")))
	// Bad site byte.
	sh.push(mkMsg(tok, 7, "x", simAddr("a")))
	// Runt.
	buf := getBuf()
	sh.push(Message{Buf: buf[:3], Addr: simAddr("a")})
	sh.Step()

	if sh.rejToken.Value() != 1 || sh.rejSite.Value() != 1 || sh.rejRunt.Value() != 1 {
		t.Fatalf("rejects = token:%d site:%d runt:%d, want 1/1/1",
			sh.rejToken.Value(), sh.rejSite.Value(), sh.rejRunt.Value())
	}
	if len(front.sent) != 0 {
		t.Fatalf("rejected datagrams were forwarded")
	}
}

func TestRouteRejectsBadShard(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Shards: 1})
	ms := []Message{mkMsg(MakeToken(5, 1, 1), 0, "x", simAddr("a"))}
	d.Route(ms, 1)
	if d.rejRoute.Value() != 1 {
		t.Fatalf("rejRoute = %d, want 1", d.rejRoute.Value())
	}
}

func TestPendingRingFlushAndBudget(t *testing.T) {
	d, front := newTestDaemon(t, Config{Shards: 1})
	tok, sh := place(t, d)

	// Ten early datagrams from site 0; only the freshest 8 fit the ring.
	for i := 0; i < pendingSlots+2; i++ {
		sh.push(mkMsg(tok, 0, fmt.Sprintf("d%d", i), simAddr("A")))
	}
	sh.Step()
	if len(front.sent) != 0 {
		t.Fatal("forwarded before the peer bound")
	}
	if got := sh.dropPending.Value(); got != 2 {
		t.Fatalf("dropPending = %d, want 2", got)
	}

	// Peer binds: the parked window flushes in order, freshest-wins.
	sh.push(mkMsg(tok, 1, "hi", simAddr("B")))
	sh.Step()
	var got []string
	for _, m := range front.sent {
		if m.Addr == simAddr("B") {
			_, _, payload, _ := ParseHeader(m.Buf)
			got = append(got, string(payload))
		}
	}
	want := []string{"d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"}
	if len(got) != len(want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flushed %v, want %v", got, want)
		}
	}
}

func TestQueueOverflowDropsWithCount(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Shards: 1, QueueLen: 4})
	tok, sh := place(t, d)
	for i := 0; i < 10; i++ {
		sh.push(mkMsg(tok, 0, "x", simAddr("A")))
	}
	if got := sh.QueueDropped(); got != 6 {
		t.Fatalf("QueueDropped = %d, want 6", got)
	}
	if got := sh.QueuePeak(); got != 4 {
		t.Fatalf("QueuePeak = %d, want 4", got)
	}
}

func TestSessionExpiry(t *testing.T) {
	v := vclock.NewVirtual(time.Unix(0, 0))
	d, _ := newTestDaemon(t, Config{Shards: 1, Clock: v, SessionTTL: time.Minute})
	tok, sh := place(t, d)
	if d.Sessions() != 1 {
		t.Fatalf("Sessions = %d, want 1", d.Sessions())
	}
	// Advance the virtual clock past the TTL; the next Step sweeps.
	done := v.Go(func() { v.Sleep(2 * time.Minute) })
	<-done
	sh.Step()
	if d.Sessions() != 0 {
		t.Fatalf("Sessions = %d after TTL, want 0", d.Sessions())
	}
	if sh.sessionsExpired.Value() != 1 {
		t.Fatalf("sessionsExpired = %d, want 1", sh.sessionsExpired.Value())
	}
	// Traffic for the expired token is now rejected, not forwarded.
	sh.push(mkMsg(tok, 0, "late", simAddr("A")))
	sh.Step()
	if sh.rejToken.Value() != 1 {
		t.Fatalf("rejToken = %d, want 1", sh.rejToken.Value())
	}
}

func TestPlaceFillsAndFails(t *testing.T) {
	d, _ := newTestDaemon(t, Config{Shards: 2, MaxSessions: 2})
	for i := 0; i < 4; i++ {
		if _, err := d.Place(); err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	if _, err := d.Place(); err != ErrFull {
		t.Fatalf("Place over capacity = %v, want ErrFull", err)
	}
	// Placements spread across shards.
	if a, b := d.Shards()[0].Active(), d.Shards()[1].Active(); a != 2 || b != 2 {
		t.Fatalf("shard loads = %d/%d, want 2/2", a, b)
	}
}

// TestUDPFrontBatchRoundTrip exercises the real socket front — on Linux the
// recvmmsg/sendmmsg path — against a plain net.UDPConn peer.
func TestUDPFrontBatchRoundTrip(t *testing.T) {
	front, err := ListenUDPFront("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer front.Close()

	peer, err := net.Dial("udp", front.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const N = 10
	for i := 0; i < N; i++ {
		if _, err := peer.Write([]byte(fmt.Sprintf("ping-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]bool{}
	var from Addr
	deadline := time.Now().Add(5 * time.Second)
	ms := newBatch(8)
	for len(got) < N && time.Now().Before(deadline) {
		n, err := front.Recv(ms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got[string(ms[i].Buf)] = true
			from = ms[i].Addr
		}
	}
	if len(got) != N {
		t.Fatalf("received %d distinct datagrams, want %d (batched=%v)", len(got), N, front.Batched())
	}
	if !from.AP.IsValid() {
		t.Fatalf("source address not parsed: %v", from)
	}

	// Echo a batch back through Send.
	out := make([]Message, 3)
	for i := range out {
		out[i] = Message{Buf: []byte(fmt.Sprintf("pong-%d", i)), Addr: from}
	}
	if n, err := front.Send(out); err != nil || n != 3 {
		t.Fatalf("Send = %d, %v", n, err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		n, err := peer.Read(buf)
		if err != nil {
			t.Fatalf("read echo %d: %v", i, err)
		}
		if !bytes.HasPrefix(buf[:n], []byte("pong-")) {
			t.Fatalf("echo %d = %q", i, buf[:n])
		}
	}
}

// TestRelayEndToEndUDP runs the full real-clock daemon: two UDP clients of a
// placed session exchange datagrams through it.
func TestRelayEndToEndUDP(t *testing.T) {
	front, err := ListenUDPFront("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	d, err := NewDaemon(Config{Shards: 2, TickEvery: 5 * time.Millisecond}, []Front{front})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Close()

	p, err := d.Place()
	if err != nil {
		t.Fatal(err)
	}

	dial := func() *net.UDPConn {
		c, err := net.Dial("udp", p.Addr)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.UDPConn)
	}
	c0, c1 := dial(), dial()
	defer c0.Close()
	defer c1.Close()

	send := func(c *net.UDPConn, site int, payload string) {
		buf := make([]byte, HeaderLen+len(payload))
		PutHeader(buf, p.Token, site)
		copy(buf[HeaderLen:], payload)
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(c *net.UDPConn, wantSite int, wantPayload string) {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, MaxDatagram)
		for {
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("waiting for %q: %v", wantPayload, err)
			}
			tok, site, payload, ok := ParseHeader(buf[:n])
			if !ok || tok != p.Token {
				continue
			}
			if site == wantSite && string(payload) == wantPayload {
				return
			}
		}
	}

	// Early send parks until the peer binds; then both directions flow.
	send(c0, 0, "first")
	send(c1, 1, "reply")
	recv(c1, 0, "first")
	recv(c0, 1, "reply")
	send(c0, 0, "second")
	recv(c1, 0, "second")
}

// A header-only datagram binds the sender's slot (and refreshes its TTL)
// without forwarding or parking anything — the primitive ClientConn uses so
// that a site that listens before it speaks (the handshake master) still
// gets a return path. Regression: before it existed, the slave's READY
// datagrams parked forever and relayed handshakes deadlocked.
func TestHeaderOnlyDatagramBindsWithoutForwarding(t *testing.T) {
	d, front := newTestDaemon(t, Config{Shards: 2})
	tok, sh := place(t, d)

	// Site 0 announces itself with a bind; nothing must reach the wire.
	sh.push(mkMsg(tok, 0, "", simAddr("quietMaster")))
	sh.Step()
	if len(front.sent) != 0 {
		t.Fatalf("bind datagram was forwarded: %d sends", len(front.sent))
	}
	if got := sh.binds.Value(); got != 1 {
		t.Fatalf("binds = %d, want 1", got)
	}
	if got := sh.queuedPending.Value(); got != 0 {
		t.Fatalf("bind datagram was parked: queuedPending = %d", got)
	}

	// The slot is bound: site 1's very first payload forwards straight to
	// the master's address.
	sh.push(mkMsg(tok, 1, "READY", simAddr("talkativeSlave")))
	sh.Step()
	if len(front.sent) != 1 {
		t.Fatalf("sent %d datagrams, want 1", len(front.sent))
	}
	if got := front.sent[0].Addr; got != simAddr("quietMaster") {
		t.Fatalf("forwarded to %v, want the bound master", got)
	}

	// A bind from a wrong source cannot rebind: same spoof rule as data.
	sh.push(mkMsg(tok, 0, "", simAddr("spoofer")))
	sh.Step()
	if got := sh.rejSpoof.Value(); got != 1 {
		t.Fatalf("spoofed bind not rejected: rejSpoof = %d", got)
	}
}

func TestClientConnStripsAndValidates(t *testing.T) {
	inner := &connStub{}
	cc := NewClientConn(inner, MakeToken(1, 2, 3), 0)
	// Construction announces the socket with a header-only bind datagram.
	if tok, site, payload, ok := ParseHeader(inner.lastSent); !ok || tok != cc.token || site != 0 || len(payload) != 0 {
		t.Fatalf("construction bind framed %v/%d/%q/%v", tok, site, payload, ok)
	}
	if err := cc.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	tok, site, payload, ok := ParseHeader(inner.lastSent)
	if !ok || tok != cc.token || site != 0 || string(payload) != "payload" {
		t.Fatalf("Send framed %v/%d/%q", tok, site, payload)
	}

	// Peer traffic (site 1, right token) passes; anything else is skipped.
	good := make([]byte, HeaderLen+2)
	PutHeader(good, cc.token, 1)
	copy(good[HeaderLen:], "ok")
	wrongTok := make([]byte, HeaderLen)
	PutHeader(wrongTok, cc.token+1, 1)
	ownEcho := make([]byte, HeaderLen)
	PutHeader(ownEcho, cc.token, 0)
	inner.queue = [][]byte{wrongTok, ownEcho, good}
	p, ok := cc.TryRecv()
	if !ok || string(p) != "ok" {
		t.Fatalf("TryRecv = %q, %v", p, ok)
	}
	if _, ok := cc.TryRecv(); ok {
		t.Fatal("TryRecv returned junk")
	}

	if err := cc.Send(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized Send accepted")
	}
}

type connStub struct {
	lastSent []byte
	queue    [][]byte
}

func (c *connStub) Send(p []byte) error {
	c.lastSent = append([]byte(nil), p...)
	return nil
}
func (c *connStub) TryRecv() ([]byte, bool) {
	if len(c.queue) == 0 {
		return nil, false
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	return p, true
}
func (c *connStub) Close() error       { return nil }
func (c *connStub) LocalAddr() string  { return "stub" }
func (c *connStub) RemoteAddr() string { return "stub" }
