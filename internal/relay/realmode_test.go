package relay

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// scriptNet is the client side of one front-differential run: named client
// endpoints that send to one of the daemon's two fronts.
type scriptNet interface {
	send(from string, front int, b []byte)
	addr(client string) Addr
}

// scriptClients names every endpoint the script sends from or rebinds to.
var scriptClients = []string{"a0", "a1", "b0", "c0", "c1", "new", "spoof", "stray"}

// playFrontScript plays one deterministic datagram script against a started
// daemon hosting three placed sessions (toks). settle(n) is called at the
// end of every phase and must return only once the daemon has taken in all
// n datagrams sent so far, so no counter depends on the order of datagrams
// within a phase.
func playFrontScript(d *Daemon, toks []Token, sn scriptNet, settle func(sent int)) {
	sent := 0
	send := func(from string, front int, b []byte) {
		sn.send(from, front, b)
		sent++
	}
	dg := func(s, site int, payload string) []byte {
		b := make([]byte, HeaderLen+len(payload))
		PutHeader(b, toks[s], site)
		copy(b[HeaderLen:], payload)
		return b
	}
	stray := func(tok Token) []byte {
		b := make([]byte, HeaderLen+1)
		PutHeader(b, tok, 0)
		return b
	}

	// Phase 1: binds. Session 0 binds both sites and session 1 its site 0;
	// session 2's site 0 speaks before its peer has bound, so it parks.
	send("a0", 0, dg(0, 0, ""))
	send("a1", 1, dg(0, 1, ""))
	send("b0", 0, dg(1, 0, ""))
	send("c0", 0, dg(2, 0, "early"))
	settle(sent)

	// Phase 2: forwards both ways, keepalives, one more park (session 1's
	// site 1 is still unbound) and every reject reason.
	for i := 0; i < 3; i++ {
		send("a0", 0, dg(0, 0, fmt.Sprintf("a0-%d", i)))
		send("a1", 1, dg(0, 1, fmt.Sprintf("a1-%d", i)))
	}
	send("a0", 1, dg(0, 0, ""))
	send("a1", 0, dg(0, 1, ""))
	send("b0", 0, dg(1, 0, "b-early"))
	send("stray", 0, []byte{1, 2, 3})             // runt
	send("stray", 1, stray(MakeToken(5, 1, 1)))   // names no configured shard
	send("stray", 0, dg(0, 7, "x"))               // bad site byte
	send("stray", 1, stray(MakeToken(0, 999, 1))) // stray token
	send("spoof", 1, dg(0, 0, "evil"))            // valid token, wrong source
	settle(sent)

	// Phase 3: a late bind drains session 2's parked datagram; the control
	// plane rebinds session 1's site 1, which drains "b-early" to the new
	// address.
	send("c1", 1, dg(2, 1, ""))
	d.Rebind(toks[1], 1, sn.addr("new"))
	settle(sent)

	// Phase 4: traffic over the rebound return path, both ways.
	send("new", 1, dg(1, 1, "hello"))
	send("b0", 0, dg(1, 0, "again"))
	settle(sent)
}

// counterSnapshot reads every RegisterMetrics series whose value is a pure
// function of the datagrams ingested: it leaves out the queue high-water
// mark and the step-time histogram, which depend on how arrivals batch.
func counterSnapshot(d *Daemon) obs.Snapshot {
	r := obs.NewRegistry()
	RegisterMetrics(r, d)
	out := obs.Snapshot{}
	for k, v := range r.Snapshot() {
		if !strings.HasPrefix(k, MetricQueuePeak) && !strings.HasPrefix(k, MetricStepNs) {
			out[k] = v
		}
	}
	return out
}

// diffSnapshots lists the keys on which a and b disagree, sorted.
func diffSnapshots(a, b obs.Snapshot) []string {
	var diff []string
	for k, v := range a {
		if b[k] != v {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s: missing vs %v", k, v))
		}
	}
	sort.Strings(diff)
	return diff
}

// ingested is how many datagrams the daemon has taken in so far: the ones
// its shards ingested plus the ones its readers rejected before routing.
func ingested(d *Daemon) int64 {
	n := d.rejRunt.Value() + d.rejRoute.Value()
	for _, s := range d.shards {
		n += s.datagramsIn.Value()
	}
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	for end := time.Now().Add(deadline); ; time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(end) {
			return false
		}
	}
}

// placeN admits n sessions and returns their tokens.
func placeN(t *testing.T, d *Daemon, n int) []Token {
	t.Helper()
	toks := make([]Token, n)
	for i := range toks {
		p, err := d.Place()
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = p.Token
	}
	return toks
}

type simScript struct {
	eps    map[string]*simnet.Endpoint
	fronts [2]string
}

func (s *simScript) send(from string, front int, b []byte) {
	_ = s.eps[from].SendTo(s.fronts[front], b)
}
func (s *simScript) addr(client string) Addr { return Addr{Sim: client} }

type udpScript struct {
	t      *testing.T
	conns  map[string]*net.UDPConn
	fronts [2]netip.AddrPort
}

func (s *udpScript) send(from string, front int, b []byte) {
	if _, err := s.conns[from].WriteToUDPAddrPort(b, s.fronts[front]); err != nil {
		s.t.Fatal(err)
	}
}
func (s *udpScript) addr(client string) Addr {
	return Addr{AP: s.conns[client].LocalAddr().(*net.UDPAddr).AddrPort()}
}

// listenUDPFronts binds n loopback fronts, skipping the test when UDP is
// unavailable.
func listenUDPFronts(t *testing.T, n int) ([]Front, []netip.AddrPort) {
	t.Helper()
	fronts := make([]Front, n)
	addrs := make([]netip.AddrPort, n)
	for i := range fronts {
		f, err := ListenUDPFront("127.0.0.1:0")
		if err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		fronts[i], addrs[i] = f, f.AddrPort()
	}
	return fronts, addrs
}

// dialClients binds one loopback client socket per name.
func dialClients(t *testing.T, names ...string) map[string]*net.UDPConn {
	t.Helper()
	conns := map[string]*net.UDPConn{}
	for _, name := range names {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[name] = c
	}
	return conns
}

// TestRealAndVirtualFrontsAgree plays one datagram script through a virtual
// daemon over SimFronts and a real-clock daemon over loopback UDPFronts, and
// requires every per-shard and reader counter to come out equal: the two
// front drivers must run the same shard code to the same decisions, in the
// manner of CGReplay's capture-and-replay comparison.
func TestRealAndVirtualFrontsAgree(t *testing.T) {
	cfg := Config{Shards: 2, Seed: 0x5eed}

	// Virtual run.
	v := vclock.NewVirtual(time.Unix(0, 0))
	sn := simnet.New(v)
	sim := &simScript{eps: map[string]*simnet.Endpoint{}}
	simFronts := make([]Front, 2)
	for i := range simFronts {
		ep := sn.MustBind(fmt.Sprintf("relay-%d", i))
		simFronts[i], sim.fronts[i] = NewSimFront(ep), ep.Addr()
	}
	for _, name := range scriptClients {
		sim.eps[name] = sn.MustBind(name)
	}
	vcfg := cfg
	vcfg.Clock = v
	vd, err := NewDaemon(vcfg, simFronts)
	if err != nil {
		t.Fatal(err)
	}
	vtoks := placeN(t, vd, 3)
	var polled <-chan struct{}
	<-v.Go(func() {
		polled = vd.StartVirtual(v)
		playFrontScript(vd, vtoks, sim, func(int) { v.Sleep(10 * time.Millisecond) })
		_ = vd.Close()
	})
	<-polled
	want := counterSnapshot(vd)

	// Real run.
	fronts, addrs := listenUDPFronts(t, 2)
	udp := &udpScript{t: t, conns: dialClients(t, scriptClients...)}
	copy(udp.fronts[:], addrs)
	rd, err := NewDaemon(cfg, fronts)
	if err != nil {
		t.Fatal(err)
	}
	rd.Start()
	defer rd.Close()
	rtoks := placeN(t, rd, 3)
	playFrontScript(rd, rtoks, udp, func(sent int) {
		if !waitFor(5*time.Second, func() bool { return ingested(rd) == int64(sent) }) {
			t.Fatalf("real daemon took in %d of %d datagrams", ingested(rd), sent)
		}
	})

	var got obs.Snapshot
	if !waitFor(5*time.Second, func() bool {
		got = counterSnapshot(rd)
		return len(diffSnapshots(want, got)) == 0
	}) {
		t.Fatalf("virtual vs real counters differ:\n%s", strings.Join(diffSnapshots(want, got), "\n"))
	}
	// The script must actually reach every decision it claims to cover.
	for _, key := range []string{
		obs.Key(MetricBinds, obs.Labels{"shard": "0"}),
		obs.Key(MetricPendingQueued, obs.Labels{"shard": "1"}),
		obs.Key(MetricRejected, obs.Labels{"shard": "front", "reason": "runt"}),
		obs.Key(MetricRejected, obs.Labels{"shard": "front", "reason": "route"}),
		obs.Key(MetricRejected, obs.Labels{"shard": "0", "reason": "site"}),
		obs.Key(MetricRejected, obs.Labels{"shard": "0", "reason": "token"}),
		obs.Key(MetricRejected, obs.Labels{"shard": "0", "reason": "spoof"}),
	} {
		if want[key] == 0 {
			t.Errorf("script never moved %s", key)
		}
	}
	// Every payload datagram was forwarded exactly once: session 0's six,
	// the two parked and drained ones and phase 4's two.
	var fwd float64
	for i := 0; i < 2; i++ {
		fwd += want[obs.Key(MetricForwarded, obs.Labels{"shard": fmt.Sprint(i)})]
	}
	if fwd != 10 {
		t.Errorf("forwarded %v datagrams, want 10", fwd)
	}
}

// sessionPair is one placed session's two loopback client sockets.
type sessionPair struct {
	tok  Token
	site [2]*net.UDPConn
}

// placePairs admits n sessions, each with two loopback client sockets.
func placePairs(t *testing.T, d *Daemon, n int) []*sessionPair {
	t.Helper()
	pairs := make([]*sessionPair, n)
	for i, tok := range placeN(t, d, n) {
		c := dialClients(t, "0", "1")
		pairs[i] = &sessionPair{tok: tok, site: [2]*net.UDPConn{c["0"], c["1"]}}
	}
	return pairs
}

func (p *sessionPair) send(t *testing.T, site int, to netip.AddrPort, payload string) {
	b := make([]byte, HeaderLen+len(payload))
	PutHeader(b, p.tok, site)
	copy(b[HeaderLen:], payload)
	if _, err := p.site[site].WriteToUDPAddrPort(b, to); err != nil {
		t.Error(err)
	}
}

// expect reads site's next datagram and checks it is the peer's payload.
func (p *sessionPair) expect(site int, payload string, within time.Duration) error {
	c := p.site[site]
	_ = c.SetReadDeadline(time.Now().Add(within))
	buf := make([]byte, MaxDatagram)
	n, err := c.Read(buf)
	if err != nil {
		return fmt.Errorf("site %d waiting for %q: %w", site, payload, err)
	}
	tok, from, got, ok := ParseHeader(buf[:n])
	if !ok || tok != p.tok || from != 1-site || string(got) != payload {
		return fmt.Errorf("site %d got %v/%d/%q, want %q", site, tok, from, got, payload)
	}
	return nil
}

// TestRealModeNoLostWakeup has both sites of every session send at once,
// each to a different front, so two readers feed one shard concurrently,
// while another goroutine churns the control plane. The fallback tick is an
// hour away, so delivery cannot lean on it: a datagram pushed while another
// goroutine runs the shard must still leave within the second.
func TestRealModeNoLostWakeup(t *testing.T) {
	fronts, addrs := listenUDPFronts(t, 2)
	d, err := NewDaemon(Config{Shards: 2, TickEvery: time.Hour}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Close()

	const sessions, rounds = 4, 50
	pairs := placePairs(t, d, sessions)

	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		discard := Addr{AP: netip.MustParseAddrPort("127.0.0.1:9")}
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := d.Place()
			if err != nil {
				t.Error(err)
				return
			}
			d.Rebind(p.Token, 0, discard)
			d.CloseSession(p.Token)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for _, p := range pairs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				msg := [2]string{fmt.Sprintf("0:%d", r), fmt.Sprintf("1:%d", r)}
				p.send(t, 0, addrs[0], msg[0])
				p.send(t, 1, addrs[1], msg[1])
				for site := 0; site < 2; site++ {
					if err := p.expect(site, msg[1-site], time.Second); err != nil {
						t.Errorf("session %v round %d: %v", p.tok, r, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churned
}

// TestRealModeCloseConservesAndLeaksNothing checks the real-clock daemon's
// shutdown: once traffic has stopped, Close leaves every shard queue empty,
// the shard counters conserve every datagram, a second Close is a no-op and
// every goroutine Start launched has exited.
func TestRealModeCloseConservesAndLeaksNothing(t *testing.T) {
	fronts, addrs := listenUDPFronts(t, 2)
	d, err := NewDaemon(Config{Shards: 2}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	d.Start()

	const sessions, perSite = 4, 20
	pairs := placePairs(t, d, sessions)
	sent := int64(0)
	settle := func() {
		t.Helper()
		if !waitFor(5*time.Second, func() bool { return ingested(d) == sent }) {
			t.Fatalf("daemon took in %d of %d datagrams", ingested(d), sent)
		}
	}
	// Bind every site first, so no payload parks.
	for _, p := range pairs {
		for site := 0; site < 2; site++ {
			p.send(t, site, addrs[site], "")
			sent++
		}
	}
	settle()
	for i := 0; i < perSite; i++ {
		for _, p := range pairs {
			for site := 0; site < 2; site++ {
				p.send(t, site, addrs[1-site], fmt.Sprintf("%d:%d", site, i))
				sent++
			}
		}
	}
	stray := make([]byte, HeaderLen)
	PutHeader(stray, MakeToken(1, 4000, 7), 0)
	if _, err := pairs[0].site[0].WriteToUDPAddrPort(stray, addrs[0]); err != nil {
		t.Fatal(err)
	}
	sent++
	settle()

	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var fwd int64
	for i, s := range d.shards {
		s.mu.Lock()
		inq, ctl := len(s.inq), len(s.ctl)
		s.mu.Unlock()
		if inq != 0 || ctl != 0 {
			t.Errorf("shard %d: %d datagrams and %d control ops left queued after Close", i, inq, ctl)
		}
		in, binds, parked := s.datagramsIn.Value(), s.binds.Value(), s.queuedPending.Value()
		rejects := s.rejRunt.Value() + s.rejSite.Value() + s.rejToken.Value() + s.rejSpoof.Value()
		if in != s.forwarded.Value()+binds+rejects+parked || parked != 0 {
			t.Errorf("shard %d: counters do not conserve: in=%d fwd=%d binds=%d rejects=%d parked=%d",
				i, in, s.forwarded.Value(), binds, rejects, parked)
		}
		if dropped := s.QueueDropped(); dropped != 0 {
			t.Errorf("shard %d: %d queue drops", i, dropped)
		}
		fwd += s.forwarded.Value()
	}
	if want := int64(sessions * 2 * perSite); fwd != want {
		t.Errorf("forwarded %d datagrams, want %d", fwd, want)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if !waitFor(2*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		var dump bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
		t.Fatalf("%d goroutines after Close, %d before Start:\n%s", runtime.NumGoroutine(), before, dump.String())
	}
}

// TestRealModeSharedTapUnderLoad shares one bounded capture.Recorder as the
// tap of a real-clock daemon whose two fronts both feed both shards: every
// session's sites send to alternating fronts, so both readers' goroutines
// run shards and record into the tap at once. Under -race this is the
// recorder's concurrency proof. The tap must hold its bounds, refuse (and
// count) what does not fit, and keep every record whole: a torn write shows
// as a header that fails to parse, a payload that contradicts its header, or
// a snapshot that does not round-trip.
func TestRealModeSharedTapUnderLoad(t *testing.T) {
	const maxRecords, maxBytes = 1024, 16 << 10
	tap := capture.NewRecorder(maxRecords, maxBytes)
	fronts, addrs := listenUDPFronts(t, 2)
	d, err := NewDaemon(Config{Shards: 2, Tap: tap}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Close()

	const sessions, rounds = 8, 100
	pairs := placePairs(t, d, sessions)
	var wg sync.WaitGroup
	for i, p := range pairs {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var msg [2]string
				for site := 0; site < 2; site++ {
					msg[site] = fmt.Sprintf("%d:%d:%d", i, site, r)
					p.send(t, site, addrs[(i+site+r)%2], msg[site])
				}
				for site := 0; site < 2; site++ {
					if err := p.expect(site, msg[1-site], 2*time.Second); err != nil {
						t.Errorf("session %d round %d: %v", i, r, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const sent = sessions * 2 * rounds
	if !waitFor(5*time.Second, func() bool { return ingested(d) == sent }) {
		t.Fatalf("daemon took in %d of %d datagrams", ingested(d), sent)
	}

	c := tap.Snapshot(capture.Meta{Game: "relay"})
	if len(c.Records) == 0 || c.Meta.Dropped == 0 {
		t.Fatalf("tap kept %d and refused %d records; want both nonzero", len(c.Records), c.Meta.Dropped)
	}
	if len(c.Records) > maxRecords {
		t.Errorf("tap exceeded its record bound: %d > %d", len(c.Records), maxRecords)
	}
	used := 0
	for _, r := range c.Records {
		used += len(r.Payload)
	}
	if used > maxBytes {
		t.Errorf("tap exceeded its byte bound: %d > %d", used, maxBytes)
	}
	for n, rec := range c.Records {
		if rec.Site > 1 {
			t.Fatalf("record %d: impossible site %d", n, rec.Site)
		}
		tok, from, pl, ok := ParseHeader(rec.Payload)
		if !ok {
			t.Fatalf("record %d: torn payload (unparseable relay header, %d bytes)", n, len(rec.Payload))
		}
		// A received datagram is recorded against its sender's site, a
		// forwarded one against its destination, the sender's peer.
		if want := int(rec.Site); (rec.Dir == capture.DirRecv) != (from == want) {
			t.Fatalf("record %d: %v record for site %d carries a site-%d header", n, rec.Dir, want, from)
		}
		var i, site, r int
		if _, err := fmt.Sscanf(string(pl), "%d:%d:%d", &i, &site, &r); err != nil ||
			i >= sessions || pairs[i].tok != tok || site != from || r >= rounds {
			t.Fatalf("record %d: torn payload %q under token %v, site %d", n, pl, tok, from)
		}
	}
	if _, err := capture.Decode(c.Encode()); err != nil {
		t.Fatalf("tap snapshot does not round-trip: %v", err)
	}
}
