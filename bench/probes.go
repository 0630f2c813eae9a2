package main

import (
	"container/heap"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/core"
	"retrolock/internal/netem"
	"retrolock/internal/relay"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// Layer probes: the unit cost of each layer's public entry points, measured
// the same way on every traced run so the ledger's time-valued rows mean the
// same thing on every workload. Where a workload configures the layer (the
// netem link, the relay's Config) the probe runs under that configuration.
// Each probe calls the layer directly from this file; none of them reaches
// into a package's internals.

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// --- vclock ----------------------------------------------------------------

// probeVclock returns the wall ns per Sleep return on a Virtual shared by
// the given number of actors, each sleeping on its own period so wake-ups
// interleave the way session, relay and generator actors do.
func probeVclock(actors int) float64 {
	const totalWakes = 120_000
	per := totalWakes / actors
	v := vclock.NewVirtual(time.Unix(0, 0))
	dones := make([]<-chan struct{}, actors)
	t0 := time.Now()
	for a := 0; a < actors; a++ {
		period := time.Duration(100+7*a) * time.Microsecond
		dones[a] = v.Go(func() {
			for i := 0; i < per; i++ {
				v.Sleep(period)
			}
		})
	}
	for _, d := range dones {
		<-d
	}
	return float64(time.Since(t0)) / float64(per*actors)
}

// --- core ------------------------------------------------------------------

// crankClock is a hand-cranked clock: Sleep moves time, nothing else does.
type crankClock struct{ t time.Time }

func (c *crankClock) Now() time.Time { return c.t }
func (c *crankClock) Sleep(d time.Duration) {
	if d > 0 {
		c.t = c.t.Add(d)
	}
}

// pipeConn is a lossless in-memory conn over preallocated slots, so the
// allocation probe sees the sync module's allocations and nothing else.
type pipeConn struct {
	peer        *pipeConn
	slots       [][]byte
	head, count int
}

func newPipePair() (*pipeConn, *pipeConn) {
	mk := func() *pipeConn {
		c := &pipeConn{slots: make([][]byte, 64)}
		for i := range c.slots {
			c.slots[i] = make([]byte, 0, 4096)
		}
		return c
	}
	a, b := mk(), mk()
	a.peer, b.peer = b, a
	return a, b
}

func (c *pipeConn) Send(p []byte) error {
	q := c.peer
	if q.count == len(q.slots) {
		return nil // full: dropped, like UDP
	}
	i := (q.head + q.count) % len(q.slots)
	q.slots[i] = append(q.slots[i][:0], p...)
	q.count++
	return nil
}

func (c *pipeConn) TryRecv() ([]byte, bool) {
	if c.count == 0 {
		return nil, false
	}
	p := c.slots[c.head]
	c.head = (c.head + 1) % len(c.slots)
	c.count--
	return p, true
}

func (c *pipeConn) Close() error       { return nil }
func (c *pipeConn) LocalAddr() string  { return "pipe" }
func (c *pipeConn) RemoteAddr() string { return "pipe" }

// probeCoreAllocs returns the exact heap allocations per two-site SyncInput
// frame in steady state (both sites stepped on one hand-cranked clock).
func probeCoreAllocs() (float64, error) {
	clk := &crankClock{t: time.Unix(0, 0)}
	c0, c1 := newPipePair()
	var sites [2]*core.InputSync
	for i, conn := range []*pipeConn{c0, c1} {
		s, err := core.NewInputSync(core.Config{SiteNo: i}, clk, clk.Now(), []core.Peer{{Site: 1 - i, Conn: conn}})
		if err != nil {
			return 0, err
		}
		sites[i] = s
	}
	frame := 0
	step := func() error {
		if _, err := sites[0].SyncInput(uint16(frame)&0xFF, frame); err != nil {
			return err
		}
		if _, err := sites[1].SyncInput(uint16(frame)<<8, frame); err != nil {
			return err
		}
		frame++
		clk.Sleep(core.DefaultSendInterval)
		return nil
	}
	for frame < 300 { // reach steady-state scratch sizes
		if err := step(); err != nil {
			return 0, err
		}
	}
	const frames = 4000
	m0 := mallocs()
	for i := 0; i < frames; i++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-m0) / frames, nil
}

// --- netem and simnet ------------------------------------------------------

// probeNetem returns the ns per Emulator.Plan under cfg.
func probeNetem(cfg netem.Config) float64 {
	const n = 200_000
	e := netem.New(cfg)
	now := time.Unix(0, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = e.Plan(now, udpDatagramLen)
		now = now.Add(time.Millisecond)
	}
	return float64(time.Since(t0)) / n
}

// crankSched is a hand-cranked vclock.Scheduler: Sleep moves time and runs
// the events that came due, on the caller's goroutine.
type crankSched struct {
	crankClock
	events crankHeap
	seq    int
}

type crankEvent struct {
	at  time.Time
	seq int
	fn  func()
}

type crankHeap []crankEvent

func (h crankHeap) Len() int { return len(h) }
func (h crankHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h crankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *crankHeap) Push(x any)   { *h = append(*h, x.(crankEvent)) }
func (h *crankHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (s *crankSched) ScheduleAfter(d time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.events, crankEvent{at: s.t.Add(d), seq: s.seq, fn: fn})
}

func (s *crankSched) Sleep(d time.Duration) {
	s.crankClock.Sleep(d)
	for len(s.events) > 0 && !s.events[0].at.After(s.t) {
		heap.Pop(&s.events).(crankEvent).fn()
	}
}

// probeSimnet returns the ns one datagram costs simnet end to end: SendTo on
// the default link, the scheduled delivery into the peer's ring, TryRecv.
func probeSimnet() (float64, error) {
	const n = 200_000
	sched := &crankSched{crankClock: crankClock{t: time.Unix(0, 0)}}
	net := simnet.New(sched)
	a, err := net.Bind("a")
	if err != nil {
		return 0, err
	}
	b, err := net.Bind("b")
	if err != nil {
		return 0, err
	}
	payload := make([]byte, udpDatagramLen)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := a.SendTo("b", payload); err != nil {
			return 0, err
		}
		sched.Sleep(simnet.MinDelay)
		if _, ok := b.TryRecv(); !ok {
			return 0, fmt.Errorf("simnet probe: datagram %d was not delivered", i)
		}
	}
	return float64(time.Since(t0)) / n, nil
}

// --- relay -----------------------------------------------------------------

// nullFront discards sends; the probes step shards by hand and never start
// the daemon, so Recv is never called.
type nullFront struct{}

func (nullFront) Recv([]relay.Message) (int, error)    { select {} }
func (nullFront) Send(ms []relay.Message) (int, error) { return len(ms), nil }
func (nullFront) LocalAddr() string                    { return "null:0" }
func (nullFront) Close() error                         { return nil }

type relayProbe struct {
	PlaceUs        float64 // per session: Place plus the shard applying it
	RouteNs        float64 // per datagram
	StepNs         float64 // per datagram
	AllocsPerDgram float64
}

// relayRig is an unstarted daemon with sessions placed and both slots of
// each bound, stepped by hand.
type relayRig struct {
	d      *relay.Daemon
	tokens []relay.Token
	addrs  [][2]relay.Addr
	batch  []relay.Message
	round  int
}

const probeBatch = 64

func newRelayRig(cfg relay.Config, sessions int) (*relayRig, time.Duration, error) {
	cfg.MaxSessions = sessions
	d, err := relay.NewDaemon(cfg, []relay.Front{nullFront{}})
	if err != nil {
		return nil, 0, err
	}
	r := &relayRig{d: d, tokens: make([]relay.Token, sessions), addrs: make([][2]relay.Addr, sessions)}
	t0 := time.Now()
	for i := range r.tokens {
		p, err := d.Place()
		if err != nil {
			return nil, 0, err
		}
		r.tokens[i] = p.Token
	}
	r.stepAll()
	placed := time.Since(t0)
	// Bind both slots of every session the way a relay learns NAT mappings:
	// one header-only datagram per site from its home address.
	one := make([]relay.Message, 1)
	for i, tok := range r.tokens {
		r.addrs[i] = [2]relay.Addr{{Sim: fmt.Sprintf("A-%d", i)}, {Sim: fmt.Sprintf("B-%d", i)}}
		for site := 0; site < 2; site++ {
			buf := make([]byte, relay.MaxDatagram)
			n := relay.PutHeader(buf, tok, site)
			one[0] = relay.Message{Buf: buf[:n], Addr: r.addrs[i][site]}
			d.Route(one, 1)
		}
	}
	r.stepAll()
	r.batch = make([]relay.Message, probeBatch)
	for i := range r.batch {
		r.batch[i].Buf = make([]byte, relay.MaxDatagram)
	}
	return r, placed, nil
}

func (r *relayRig) stepAll() {
	for _, sh := range r.d.Shards() {
		sh.Step()
	}
}

// stamp rewrites the batch as the next 64 datagrams of interleaved client
// traffic, cycling over sessions and sites, in the generator's 33-byte shape.
func (r *relayRig) stamp() {
	for i := range r.batch {
		k := (r.round*len(r.batch) + i) % (2 * len(r.tokens))
		tok, site := r.tokens[k/2], k%2
		buf := r.batch[i].Buf[:relay.MaxDatagram]
		n := relay.PutHeader(buf, tok, site)
		r.batch[i].Buf = buf[:n+udpPayloadLen]
		r.batch[i].Addr = r.addrs[k/2][site]
	}
	r.round++
}

// probeRelay measures Place, Route and Step under cfg.
func probeRelay(cfg relay.Config) (relayProbe, error) {
	const rounds = 3000
	rig, placed, err := newRelayRig(cfg, udpSessions)
	if err != nil {
		return relayProbe{}, err
	}
	defer rig.d.Close()
	out := relayProbe{PlaceUs: float64(placed) / 1e3 / udpSessions}
	for i := 0; i < 100; i++ { // reach steady-state pool occupancy
		rig.stamp()
		rig.d.Route(rig.batch, probeBatch)
		rig.stepAll()
	}
	var route, step time.Duration
	m0 := mallocs()
	for i := 0; i < rounds; i++ {
		rig.stamp()
		t0 := time.Now()
		rig.d.Route(rig.batch, probeBatch)
		t1 := time.Now()
		rig.stepAll()
		step += time.Since(t1)
		route += t1.Sub(t0)
	}
	n := float64(rounds * probeBatch)
	out.AllocsPerDgram = float64(mallocs()-m0) / n
	out.RouteNs, out.StepNs = float64(route)/n, float64(step)/n
	return out, nil
}

type telemetryProbe struct {
	FleetTickUs, HistorySampleUs, ScrapeUs float64
}

// probeTelemetry measures relayd's three periodic telemetry jobs over a
// daemon hosting udpSessions sessions with live per-session stats.
func probeTelemetry() (telemetryProbe, error) {
	const ticks = 30
	rig, _, err := newRelayRig(telemetryConfig(relay.Config{Shards: benchProcs(), SessionTTL: time.Hour}), udpSessions)
	if err != nil {
		return telemetryProbe{}, err
	}
	defer rig.d.Close()
	tel, err := wireTelemetry(rig.d)
	if err != nil {
		return telemetryProbe{}, err
	}
	defer tel.fleet.Close()
	var tick, sample, scrape []float64
	now := time.Now()
	for i := 0; i < ticks; i++ {
		for r := 0; r < 2*udpSessions/probeBatch; r++ { // every (session, site) speaks once per tick
			rig.stamp()
			rig.d.Route(rig.batch, probeBatch)
			rig.stepAll()
		}
		now = now.Add(time.Second)
		t0 := time.Now()
		tel.tick(now)
		t1 := time.Now()
		tel.sample(now)
		t2 := time.Now()
		if err := tel.reg.WritePrometheus(io.Discard); err != nil {
			return telemetryProbe{}, err
		}
		t3 := time.Now()
		tick = append(tick, float64(t1.Sub(t0))/1e3)
		sample = append(sample, float64(t2.Sub(t1))/1e3)
		scrape = append(scrape, float64(t3.Sub(t2))/1e3)
	}
	return telemetryProbe{median(tick), median(sample), median(scrape)}, nil
}

// probeCapture returns the ns per Recorder.Record of one generator datagram
// while the recorder still has room (once full it only counts drops).
func probeCapture() float64 {
	const n = 60_000
	rec := capture.NewRecorder(1<<16, 1<<24)
	payload := make([]byte, udpDatagramLen)
	now := time.Now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.Record(now, capture.DirRecv, i&1, payload)
	}
	return float64(time.Since(t0)) / n
}

type frontProbe struct{ RecvNs, SendNs float64 }

// probeFront measures UDPFront.Recv and Send per datagram over loopback with
// no waiting in either: Send goes to a sink socket that is drained between
// batches, Recv drains a socket that was filled before the clock starts.
func probeFront() (frontProbe, error) {
	const rounds = 300
	f, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		return frontProbe{}, err
	}
	defer f.Close()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return frontProbe{}, err
	}
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	frontAddr := f.AddrPort()
	out := make([]relay.Message, probeBatch)
	in := make([]relay.Message, probeBatch)
	for i := range out {
		out[i] = relay.Message{Buf: make([]byte, udpDatagramLen), Addr: relay.Addr{AP: netip.AddrPortFrom(sinkAddr.Addr().Unmap(), sinkAddr.Port())}}
		in[i].Buf = make([]byte, relay.MaxDatagram)
	}
	scratch := make([]byte, relay.MaxDatagram)
	var send, recv time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if _, err := f.Send(out); err != nil {
			return frontProbe{}, err
		}
		send += time.Since(t0)
		for i := 0; i < probeBatch; i++ {
			_ = sink.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := sink.Read(scratch); err != nil {
				return frontProbe{}, fmt.Errorf("front probe: sink read: %w", err)
			}
			if _, err := sink.WriteToUDPAddrPort(scratch[:udpDatagramLen], frontAddr); err != nil {
				return frontProbe{}, err
			}
		}
		// Loopback delivery is synchronous with the write, so the 64
		// datagrams are already queued on the front's socket.
		t1 := time.Now()
		for got := 0; got < probeBatch; {
			for i := range in {
				in[i].Buf = in[i].Buf[:cap(in[i].Buf)]
			}
			n, err := f.Recv(in)
			if err != nil {
				return frontProbe{}, err
			}
			got += n
		}
		recv += time.Since(t1)
	}
	n := float64(rounds * probeBatch)
	return frontProbe{RecvNs: float64(recv) / n, SendNs: float64(send) / n}, nil
}
