package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/relay"
)

// relay_udp_bare and relay_udp_telemetry: a relay daemon in a re-executed
// child over one loopback UDP front (real clock, loopback — not a real
// link), driven open-loop by the parent with a cap on what is in flight (see
// udpInFlightMax). Differences from cmd/experiment's relayload, which stays as
// it is:
//
//   - latency is kept as raw samples, not obs.Histogram power-of-two buckets;
//   - it runs from the instant a datagram was due, and how late the generator
//     ran is reported next to it;
//   - sends are spread evenly over the frame period instead of one burst per
//     tick;
//   - warm-up is excluded by due instant on both the send and the receive
//     side, so delivery can never exceed 100%;
//   - the relay's CPU is its own process's, not mixed with the generator's.

const (
	udpSessions    = 256
	udpFrameHz     = 60
	udpWarmupRef   = 3 * time.Second // at refSeconds
	udpLate        = time.Second     // a delivery later than this after it was due is counted (relay.delivered_late)
	udpDrain       = 3 * time.Second // deliveries standing still this long: what is still out is lost
	udpPayloadLen  = 24              // due instant, token echo, site, sequence, filler
	udpDatagramLen = relay.HeaderLen + udpPayloadLen

	// udpInFlightMax caps the datagrams one generator socket has sent and not
	// yet got back (see inFlightCap). A relay that runs has a dozen out at
	// this rate, so the cap is not reached; a relay (or a receiver, or the
	// kernel's softirq thread) the host has descheduled would otherwise be
	// sent a backlog that overflows a socket buffer, the loopback device's
	// 1000-packet backlog or a shard's 4096-slot queue, and what UDP then
	// drops depends on the neighbours, not on the program. With the cap the
	// generator waits instead, catches up back to back, and every datagram it
	// held back still counts its latency from the instant it was due.
	udpInFlightMax = 256
	udpInFlightMin = 32
	// udpSkbBytes is a generous estimate of what one small datagram charges
	// to a receive buffer (the kernel's truesize is about 700 bytes).
	udpSkbBytes = 1024
)

// inFlightCap sizes the per-socket cap so that everything all nSock sockets
// may have out fits twice over in the receive buffer the kernel really
// granted: the relay's front asks for the same 4 MiB as the generator's
// sockets do, and net.core.rmem_max clamps both alike.
func inFlightCap(conn *net.UDPConn, nSock int) int {
	granted := 0
	if rc, err := conn.SyscallConn(); err == nil {
		_ = rc.Control(func(fd uintptr) {
			granted, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		})
	}
	return max(udpInFlightMin, min(udpInFlightMax, granted/udpSkbBytes/(2*nSock)))
}

// relayFrameTarget is relayd's -grade-target default: two 60 FPS frames.
const relayFrameTarget = 2 * 16670 * time.Microsecond

type relaySpec struct {
	Telemetry bool   `json:"telemetry"`
	Sessions  int    `json:"sessions"`
	Traced    bool   `json:"traced"`
	SpanFile  string `json:"span_file"`
}

type relayReady struct {
	Tokens  []string `json:"tokens"`
	Addr    string   `json:"addr"`
	ObsAddr string   `json:"obs_addr"`
	PlaceNs int64    `json:"place_ns"`
	Batched bool     `json:"batched"`
	Shards  int      `json:"shards"`
}

type relayMark struct {
	CPUNs int64 `json:"cpu_ns"`
}

// relayFinal is the child's closing account.
type relayFinal struct {
	PeakMB       float64 `json:"peak_mb"`
	Forwarded    int64   `json:"forwarded"`
	Parked       int64   `json:"parked"`
	QueueDropped int64   `json:"queue_dropped"`
	QueuePeak    int64   `json:"queue_peak"`
	SpoofReject  int64   `json:"spoof_rejected"`
	StepP99Ns    int64   `json:"step_p99_ns"`
	TapRecords   int     `json:"tap_records"`
	Tracked      int     `json:"tracked"`
	Unhealthy    int     `json:"unhealthy"`
	// Traced children only.
	RecvCalls  int64 `json:"recv_calls"`
	RecvDgrams int64 `json:"recv_dgrams"`
	SendCalls  int64 `json:"send_calls"`
	SendNs     int64 `json:"send_ns"`
	TickCalls  int64 `json:"tick_calls"`
	TickNs     int64 `json:"tick_ns"`
	SampleCall int64 `json:"sample_calls"`
	SampleNs   int64 `json:"sample_ns"`
	Spans      int   `json:"spans"`
}

var (
	spFrontRecv = newSpanName("relay.Front.Recv")
	spFrontSend = newSpanName("relay.Front.Send")
	spFleetTick = newSpanName("obs.Fleet.Tick")
	spHistory   = newSpanName("obs.history.Sample")
)

// sharedSpans takes complete spans from several goroutines (the shard loops
// all send through one front), so it is locked and keeps no stack.
type sharedSpans struct {
	mu  sync.Mutex
	buf *spanBuf
}

func (s *sharedSpans) add(name spanName, start, end time.Time, n int) {
	s.mu.Lock()
	s.buf.spans = append(s.buf.spans, span{Name: name, Parent: -1, N: int32(n),
		Start: int64(start.Sub(s.buf.epoch)), End: int64(end.Sub(s.buf.epoch))})
	s.mu.Unlock()
}

// tracedFront spans the daemon's socket calls. A Recv span includes the time
// the reader sat blocked, so only its count and batch size are used; a Send
// never blocks on loopback.
type tracedFront struct {
	relay.Front
	recv  *spanBuf // the daemon dedicates one reader goroutine to a front
	sends *sharedSpans
}

func (f *tracedFront) Recv(ms []relay.Message) (int, error) {
	id := f.recv.begin(spFrontRecv)
	n, err := f.Front.Recv(ms)
	f.recv.endN(id, n)
	return n, err
}

func (f *tracedFront) Send(ms []relay.Message) (int, error) {
	t0 := time.Now()
	n, err := f.Front.Send(ms)
	f.sends.add(spFrontSend, t0, time.Now(), len(ms))
	return n, err
}

// relayChild hosts the program under test for the relay_udp_* workloads.
func relayChild(cio *childIO, spec relaySpec) error {
	udp, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		return err
	}
	epoch := time.Now()
	var front relay.Front = udp
	var tf *tracedFront
	var ticks *spanBuf
	if spec.Traced {
		tf = &tracedFront{Front: udp, recv: newSpanBuf("relay.reader", epoch, 1<<18),
			sends: &sharedSpans{buf: newSpanBuf("relay.shards", epoch, 1<<18)}}
		front = tf
		ticks = newSpanBuf("relay.tickers", epoch, 1<<10)
	}

	cfg := relay.Config{Shards: runtime.GOMAXPROCS(0), SessionTTL: time.Hour}
	if spec.Telemetry {
		cfg = telemetryConfig(cfg)
	}
	d, err := relay.NewDaemon(cfg, []relay.Front{front})
	if err != nil {
		return err
	}
	d.Start()

	ready := relayReady{Addr: udp.LocalAddr(), Batched: udp.Batched(), Shards: cfg.Shards}
	stop := make(chan struct{})
	var tickers sync.WaitGroup
	var tel *telemetry
	if spec.Telemetry {
		if tel, err = wireTelemetry(d); err != nil {
			return err
		}
		srv, err := tel.serve(ticks, stop, &tickers)
		if err != nil {
			return err
		}
		defer srv.Close()
		ready.ObsAddr = srv.Addr()
	}

	t0 := time.Now()
	for i := 0; i < spec.Sessions; i++ {
		p, err := d.Place()
		if err != nil {
			return fmt.Errorf("place %d: %w", i, err)
		}
		ready.Tokens = append(ready.Tokens, p.Token.String())
	}
	ready.PlaceNs = int64(time.Since(t0))
	if err := cio.emit(ready); err != nil {
		return err
	}

	for {
		var cmd struct {
			Cmd string `json:"cmd"`
		}
		if err := cio.recv(&cmd); err != nil {
			if errors.Is(err, io.EOF) {
				d.Close()
				return errors.New("parent went away")
			}
			return err
		}
		switch cmd.Cmd {
		case "mark":
			if err := cio.emit(relayMark{CPUNs: int64(selfCPU())}); err != nil {
				return err
			}
		case "quit":
			fin := relayFinal{PeakMB: peakRSSMB(), StepP99Ns: int64(d.StepTime.Quantile(0.99))}
			close(stop)
			tickers.Wait()
			if err := d.Close(); err != nil {
				return fmt.Errorf("close daemon: %w", err)
			}
			snap := obs.NewRegistry()
			relay.RegisterMetrics(snap, d)
			counters := snap.Snapshot()
			for i, sh := range d.Shards() {
				fin.Parked += int64(counters[obs.Key(relay.MetricPendingQueued, obs.Labels{"shard": strconv.Itoa(i)})])
				fin.Forwarded += sh.Forwarded()
				fin.QueueDropped += sh.QueueDropped()
				fin.SpoofReject += sh.SpoofRejected()
				if p := sh.QueuePeak(); p > fin.QueuePeak {
					fin.QueuePeak = p
				}
			}
			fin.TapRecords = cfg.Tap.Len()
			if tel != nil {
				if snap := tel.fleet.Snapshot(); snap != nil {
					fin.Tracked, fin.Unhealthy = snap.Summary.Tracked, snap.Summary.Degraded+snap.Summary.Infeasible
				}
				tel.fleet.Close()
			}
			if spec.Traced {
				bufs := []*spanBuf{tf.recv, tf.sends.buf, ticks}
				agg := aggregate(bufs...)
				fin.RecvCalls, fin.RecvDgrams = agg[spFrontRecv].Calls, agg[spFrontRecv].N
				fin.SendCalls, fin.SendNs = agg[spFrontSend].Calls, agg[spFrontSend].Total
				fin.TickCalls, fin.TickNs = agg[spFleetTick].Calls, agg[spFleetTick].Total
				fin.SampleCall, fin.SampleNs = agg[spHistory].Calls, agg[spHistory].Total
				if fin.Spans, err = writeSpans(spec.SpanFile, bufs); err != nil {
					return err
				}
			}
			return cio.emit(fin)
		default:
			return fmt.Errorf("unknown command %q", cmd.Cmd)
		}
	}
}

// telemetry is what cmd/relayd wires behind -obs -autocapture, built through
// the same public calls: the fleet grader, a registry with relay, process
// and fleet series, the shard step-pacing health engine, and history
// retention with relayd's fleet-session-health burn-rate rule.
type telemetry struct {
	fleet  *relay.Fleet
	reg    *obs.Registry
	health *obs.Health
	svc    *history.Service
}

// telemetryConfig turns a bare relay config into relayd's -obs -autocapture
// -capture one.
func telemetryConfig(cfg relay.Config) relay.Config {
	cfg.Tap = capture.NewRecorder(1<<16, 1<<24)
	cfg.Stats = true
	cfg.AutoCaptureRecords = 64
	cfg.AutoCaptureBytes = 8 << 10
	return cfg
}

func wireTelemetry(d *relay.Daemon) (*telemetry, error) {
	fl, err := relay.NewFleet(d, relay.FleetConfig{
		TopK:   16,
		Window: time.Second,
		Health: obs.HealthConfig{FrameTarget: relayFrameTarget},
		// relayd writes each bundle to its -autocapture directory; the
		// benchmark encodes it and lets it go, which is the same work minus
		// the file.
		OnCapture: func(ac relay.AnomalyCapture) { _ = ac.Capture.Encode() },
	})
	if err != nil {
		return nil, err
	}
	t := &telemetry{fleet: fl, reg: obs.NewRegistry()}
	relay.RegisterMetrics(t.reg, d)
	obs.RegisterProcessMetrics(t.reg)
	fl.Register(t.reg)
	t.health = obs.NewHealth(obs.HealthConfig{}, obs.HealthSources{FrameTime: d.StepTime})
	t.health.Register(t.reg, 0)
	t.svc = history.Wire(t.reg, history.Options{Rules: []history.Rule{{
		Name:   "fleet-session-health",
		Source: history.SourceGauge,
		Bad: []string{
			obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "degraded"}),
			obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "infeasible"}),
		},
		Total:      []string{relay.MetricSessionTracked},
		Budget:     0.05,
		FastWindow: time.Minute,
		SlowWindow: 5 * time.Minute,
		Threshold:  4,
	}}})
	return t, nil
}

// tick is relayd's fleet ticker body; sample is its BaseStep ticker body.
func (t *telemetry) tick(now time.Time) { t.fleet.Tick(now) }

func (t *telemetry) sample(now time.Time) {
	t.health.Evaluate(now)
	t.svc.Sample(now)
}

// serve runs the two tick loops relayd runs (Fleet.Start's and main's) and
// the HTTP surface until stop closes. The loops live here rather than in
// Fleet.Start so a traced child can put a span around each tick.
func (t *telemetry) serve(ticks *spanBuf, stop <-chan struct{}, wg *sync.WaitGroup) (*obs.Server, error) {
	srv, err := obs.Serve("127.0.0.1:0", t.reg)
	if err != nil {
		return nil, err
	}
	// Both loops record into one buffer, so they take turns through this
	// lock; a tick per second each never contends.
	var mu sync.Mutex
	loop := func(every time.Duration, name spanName, fn func(time.Time)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(every)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tk.C:
					mu.Lock()
					id := ticks.begin(name)
					fn(now)
					ticks.end(id)
					mu.Unlock()
				}
			}
		}()
	}
	loop(time.Second, spFleetTick, t.tick)
	loop(t.svc.Store.BaseStep(), spHistory, t.sample)
	return srv, nil
}

// --- the parent: open-loop generator --------------------------------------

// udpSocket is one generator socket: a sender goroutine, a receiver
// goroutine, and the sessions (both sites of each) they serve.
type udpSocket struct {
	conn   *net.UDPConn
	relay  netip.AddrPort
	tokens []relay.Token
	known  map[relay.Token]bool

	// Written by the sender, read after it has finished.
	sentTotal    int64
	sentMeasured int64
	lateNs       []float64 // how late each measured send left, ns
	inFlight     int64     // the cap on sent-and-not-yet-back, from inFlightCap
	windowWaits  int64     // sends that found inFlight out and had to wait
	givenUp      int64     // datagrams the sender stopped waiting for: lost

	// Written by the receiver, read after it has finished (recvTotal and
	// recvMeasured are polled live by the drain wait).
	recvTotal    atomic.Int64
	recvMeasured atomic.Int64
	latNs        []float64 // one-way latency from the due instant, ns
	overLate     int64     // measured datagrams delivered later than udpLate after they were due
	badEcho      int64     // token echo or site byte mismatch, or a foreign token
	lastRecvNs   int64     // arrival of the last measured datagram, since epoch
}

// udpWindow is one driven relay: the schedule shared by every socket.
type udpWindow struct {
	epoch          time.Time
	period         time.Duration
	mStart, mEnd   time.Duration // measured window, by due instant since epoch
	receiversLeave atomic.Bool
}

func (w *udpWindow) measured(due time.Duration) bool { return due >= w.mStart && due < w.mEnd }

// send walks the socket's schedule: slot k is due k*period/(2n) after the
// epoch and belongs to sender k mod 2n, so every (session, site) sends once
// per period and the socket's sends are spread evenly across it. A stalled
// generator catches up back to back; latency still counts from the due
// instant, so the stall shows in the samples of the datagrams it delayed.
func (s *udpSocket) send(w *udpWindow) error {
	senders := int64(2 * len(s.tokens))
	buf := make([]byte, udpDatagramLen)
	for i := relay.HeaderLen + 21; i < len(buf); i++ {
		buf[i] = 0x5a
	}
	for k := int64(0); ; k++ {
		due := time.Duration(k * int64(w.period) / senders)
		if due >= w.mEnd {
			return nil
		}
		now := time.Since(w.epoch)
		if now < due {
			time.Sleep(due - now)
			now = time.Since(w.epoch)
		}
		if s.sentTotal-s.givenUp-s.recvTotal.Load() >= s.inFlight {
			s.awaitRoom()
			now = time.Since(w.epoch)
		}
		idx := k % senders
		tok, site := s.tokens[idx/2], int(idx%2)
		n := relay.PutHeader(buf, tok, site)
		binary.BigEndian.PutUint64(buf[n:], uint64(due))
		binary.BigEndian.PutUint64(buf[n+8:], uint64(tok))
		buf[n+16] = byte(site)
		binary.BigEndian.PutUint32(buf[n+17:], uint32(k))
		if _, err := s.conn.WriteToUDPAddrPort(buf, s.relay); err != nil {
			return fmt.Errorf("generator send: %w", err)
		}
		s.sentTotal++
		if w.measured(due) {
			s.sentMeasured++
			s.lateNs = append(s.lateNs, float64(now-due))
		}
	}
}

// awaitRoom holds the sender while s.inFlight datagrams are out, until half
// of them are back: resuming at the first free slot would send one datagram
// per poll and never catch up. Deliveries standing still for udpDrain while
// nothing is being sent means what is out is lost; the sender writes it off
// (the end of the run counts it as failed ops) and goes on.
func (s *udpSocket) awaitRoom() {
	s.windowWaits++
	got, since := s.recvTotal.Load(), time.Now()
	for {
		time.Sleep(50 * time.Microsecond)
		cur := s.recvTotal.Load()
		out := s.sentTotal - s.givenUp - cur
		if out <= s.inFlight/2 {
			return
		}
		if cur != got {
			got, since = cur, time.Now()
		} else if time.Since(since) > udpDrain {
			s.givenUp += out
			return
		}
	}
}

// bind claims both slots of every session with header-only datagrams, the
// way relay.ClientConn does, so no payload datagram is ever parked.
func (s *udpSocket) bind() error {
	var hdr [relay.HeaderLen]byte
	for _, tok := range s.tokens {
		for site := 0; site < 2; site++ {
			relay.PutHeader(hdr[:], tok, site)
			if _, err := s.conn.WriteToUDPAddrPort(hdr[:], s.relay); err != nil {
				return fmt.Errorf("bind: %w", err)
			}
		}
	}
	return nil
}

// receive takes deliveries until the window tells it to leave, checking the
// token echo and site byte of every one.
func (s *udpSocket) receive(w *udpWindow) {
	buf := make([]byte, relay.MaxDatagram)
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := s.conn.Read(buf)
		now := time.Since(w.epoch)
		if err != nil {
			if w.receiversLeave.Load() {
				return
			}
			continue
		}
		s.recvTotal.Add(1)
		tok, site, pl, ok := relay.ParseHeader(buf[:n])
		if !ok || len(pl) != udpPayloadLen || !s.known[tok] ||
			relay.Token(binary.BigEndian.Uint64(pl[8:])) != tok || int(pl[16]) != site {
			s.badEcho++
			continue
		}
		due := time.Duration(binary.BigEndian.Uint64(pl))
		if !w.measured(due) {
			continue
		}
		lat := now - due
		if lat > udpLate {
			s.overLate++
		}
		s.latNs = append(s.latNs, float64(lat))
		s.lastRecvNs = int64(now)
		s.recvMeasured.Add(1)
	}
}

// udpOutcome is one driven window's raw result.
type udpOutcome struct {
	SetupS        float64
	Sent, Recv    int64 // measured window
	SentAll       int64 // every payload datagram, warm-up included
	RecvAll       int64
	SocketDropped int64 // sent but never seen by a shard: the kernel dropped it at the relay's socket
	InFlightCap   int64 // per generator socket
	WindowWaits   int64 // sends held back by the cap
	OverLate      int64 // measured datagrams delivered, but later than udpLate after they were due
	Failed        int64 // datagrams lost, plus every wrong output
	Incorrect     int64 // wrong outputs only: echo, accounting, telemetry, scrape
	Failures      []string
	LatencyNs     []float64 // unsorted until the run has pooled its children's
	LateNs        []float64 // likewise
	WallS         float64   // first measured due instant to last measured arrival
	CPUNs         int64
	ScrapeUs      []float64
	Ready         relayReady
	Final         relayFinal
	GeneratorCPU  time.Duration
}

// driveRelay spawns a relay child, sets the sessions up, drives the warm-up
// and the measured window, and collects the account.
func driveRelay(spec relaySpec, seed int64, warmup, measure time.Duration) (*udpOutcome, error) {
	c, err := spawnChild("relay", spec)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	out := &udpOutcome{}
	if err := c.recv(&out.Ready); err != nil {
		return nil, err
	}
	raddr, err := netip.ParseAddrPort(out.Ready.Addr)
	if err != nil {
		return nil, err
	}
	tokens := make([]relay.Token, len(out.Ready.Tokens))
	for i, t := range out.Ready.Tokens {
		if tokens[i], err = relay.ParseToken(t); err != nil {
			return nil, err
		}
	}
	// Which socket hosts which session depends on the seed; the relay never
	// sees the seed, only the traffic.
	sort.Slice(tokens, func(i, j int) bool { return mix(uint64(tokens[i]), seed) < mix(uint64(tokens[j]), seed) })

	nSock := generatorSockets()
	socks := make([]*udpSocket, nSock)
	for g := range socks {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		_ = conn.SetReadBuffer(4 << 20)
		_ = conn.SetWriteBuffer(4 << 20)
		s := &udpSocket{conn: conn, relay: raddr, known: map[relay.Token]bool{}, inFlight: int64(inFlightCap(conn, nSock))}
		out.InFlightCap = s.inFlight
		for i := g; i < len(tokens); i += nSock {
			s.tokens = append(s.tokens, tokens[i])
			s.known[tokens[i]] = true
		}
		expect := int(measure/(time.Second/udpFrameHz)+2) * 2 * len(s.tokens)
		s.latNs = make([]float64, 0, expect)
		s.lateNs = make([]float64, 0, expect)
		socks[g] = s
	}
	for _, s := range socks {
		if err := s.bind(); err != nil {
			return nil, err
		}
	}
	time.Sleep(20 * time.Millisecond) // let the binds reach the shard loops before payload follows

	w := &udpWindow{epoch: time.Now(), period: time.Second / udpFrameHz}
	w.mStart = warmup
	w.mEnd = warmup + measure
	var recvWg, sendWg sync.WaitGroup
	sendErrs := make([]error, len(socks))
	for g, s := range socks {
		g, s := g, s
		recvWg.Add(1)
		go func() { defer recvWg.Done(); s.receive(w) }()
		sendWg.Add(1)
		go func() { defer sendWg.Done(); sendErrs[g] = s.send(w) }()
	}
	stopReceivers := func() { w.receiversLeave.Store(true); recvWg.Wait() }

	mark := func() (int64, error) {
		if err := c.send(map[string]string{"cmd": "mark"}); err != nil {
			return 0, err
		}
		var m relayMark
		if err := c.recv(&m); err != nil {
			return 0, err
		}
		return m.CPUNs, nil
	}
	time.Sleep(time.Until(w.epoch.Add(w.mStart)))
	out.SetupS = time.Since(c.spawned).Seconds()

	cpu0, err := mark()
	if err != nil {
		stopReceivers()
		return nil, err
	}
	gen0 := selfCPU()
	scrapeStop := make(chan struct{})
	var scrapeWg sync.WaitGroup
	var scrapeErr error
	if out.Ready.ObsAddr != "" {
		scrapeWg.Add(1)
		go func() {
			defer scrapeWg.Done()
			out.ScrapeUs, scrapeErr = scrapeLoop("http://"+out.Ready.ObsAddr+"/metrics", scrapeStop)
		}()
	}
	sendWg.Wait() // the last measured datagram has been sent
	cpu1, err := mark()
	close(scrapeStop)
	scrapeWg.Wait()
	if err != nil {
		stopReceivers()
		return nil, err
	}
	out.CPUNs = cpu1 - cpu0
	out.GeneratorCPU = selfCPU() - gen0

	// Stragglers are waited for while they keep coming: what is still out
	// when deliveries have stood still for udpDrain is lost.
	var seen int64
	idle := time.Now()
	for time.Since(idle) < udpDrain {
		var sent, got, all int64
		for _, s := range socks {
			sent += s.sentMeasured
			got += s.recvMeasured.Load()
			all += s.recvTotal.Load()
		}
		if got >= sent {
			break
		}
		if all != seen {
			seen, idle = all, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopReceivers()
	if err := quitRelay(c, &out.Final); err != nil {
		return nil, err
	}

	var last int64
	for g, s := range socks {
		if sendErrs[g] != nil {
			return nil, sendErrs[g]
		}
		out.Sent += s.sentMeasured
		out.Recv += s.recvMeasured.Load()
		out.SentAll += s.sentTotal
		out.RecvAll += s.recvTotal.Load()
		out.LatencyNs = append(out.LatencyNs, s.latNs...)
		out.LateNs = append(out.LateNs, s.lateNs...)
		if s.lastRecvNs > last {
			last = s.lastRecvNs
		}
		if s.badEcho > 0 {
			out.Failed += s.badEcho
			out.Incorrect += s.badEcho
			out.Failures = append(out.Failures, fmt.Sprintf("socket %d: %d deliveries failed the token-echo/site check", g, s.badEcho))
		}
		out.WindowWaits += s.windowWaits
		out.OverLate += s.overLate
	}
	out.WallS = (time.Duration(last) - w.mStart).Seconds()
	if lost := out.Sent - out.Recv; lost != 0 {
		out.Failed += abs64(lost)
		out.Failures = append(out.Failures, fmt.Sprintf("%d of %d measured datagrams were never delivered", lost, out.Sent))
	}
	// The books must balance: the generator cannot have received more than
	// the relay forwarded, the relay cannot have handled more than was sent,
	// and nothing may be rejected as spoofed. Shortfalls are UDP's to take:
	// the kernel drops at a socket whose owner was not running (relay side:
	// SocketDropped; generator side: forwarded but never received) and the
	// relay sheds at a full shard queue with a count. Inside the measured
	// window each such datagram is already a failed op above.
	f := out.Final
	out.SocketDropped = out.SentAll - f.Forwarded - f.QueueDropped
	if out.RecvAll > f.Forwarded || out.SocketDropped < 0 || f.SpoofReject != 0 {
		out.Failed++
		out.Incorrect++
		out.Failures = append(out.Failures, fmt.Sprintf("accounting: sent %d, relay forwarded %d + queue-dropped %d (parked %d, spoof-rejected %d), generator received %d",
			out.SentAll, f.Forwarded, f.QueueDropped, f.Parked, f.SpoofReject, out.RecvAll))
	}
	// How the fleet graded the sessions is the relay's view of the host's
	// stalls, not an output to check; that it graded all of them is.
	if spec.Telemetry && (f.Tracked != spec.Sessions || f.TapRecords == 0) {
		out.Failed++
		out.Incorrect++
		out.Failures = append(out.Failures, fmt.Sprintf("telemetry: fleet tracked %d of %d sessions, tap holds %d records", f.Tracked, spec.Sessions, f.TapRecords))
	}
	if scrapeErr != nil {
		out.Failed++
		out.Incorrect++
		out.Failures = append(out.Failures, "scrape: "+scrapeErr.Error())
	}
	return out, nil
}

func quitRelay(c *childProc, fin *relayFinal) error {
	if err := c.send(map[string]string{"cmd": "quit"}); err != nil {
		return err
	}
	if err := c.recv(fin); err != nil {
		return err
	}
	return c.wait()
}

// scrapeLoop is the Prometheus of the telemetry workload: one /metrics GET a
// second, body read to the end, wall time of each in microseconds.
func scrapeLoop(url string, stop <-chan struct{}) ([]float64, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	var us []float64
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return us, nil
		case <-t.C:
		}
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return us, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			return us, fmt.Errorf("GET %s: status %d, %d bytes, err %v", url, resp.StatusCode, n, err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
}

// mix is a seeded 64-bit scrambler (splitmix64 finaliser).
func mix(x uint64, seed int64) uint64 {
	x += uint64(seed) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func udpTimes(seconds int) (warmup, measure time.Duration) {
	return udpWarmupRef * time.Duration(seconds) / refSeconds, time.Duration(seconds) * time.Second
}

// runRelayUDP drives one relay_udp_* workload from the parent: runParts
// fresh relay children, each warmed up and then measured for its share of
// the window.
func runRelayUDP(workload string, seed int64, seconds int) (*runResult, error) {
	spec := relaySpec{Telemetry: workload == "relay_udp_telemetry", Sessions: udpSessions}
	warmup, measure := udpTimes(seconds)
	var (
		all                 udpOutcome
		setups, cpus, peaks []float64
	)
	for k := 0; k < runParts; k++ {
		o, err := driveRelay(spec, seed+int64(k)<<32, warmup, measure/runParts)
		if err != nil {
			return nil, err
		}
		if o.Recv == 0 || o.WallS <= 0 {
			return nil, fmt.Errorf("%s: nothing was relayed (%v)", workload, o.Failures)
		}
		all.merge(o)
		setups = append(setups, o.SetupS)
		cpus = append(cpus, float64(o.CPUNs)/1e3/float64(o.Recv))
		peaks = append(peaks, o.Final.PeakMB)
	}
	sort.Float64s(all.LatencyNs)
	sort.Float64s(all.LateNs)

	r := &runResult{Workload: workload, Seed: seed, Seconds: seconds}
	r.Ops = map[string]int64{"sessions": udpSessions, "datagrams_per_s": udpSessions * 2 * udpFrameHz, "datagrams": all.Sent, "children": runParts}
	r.Attempted = int(all.Sent)
	r.Failed, r.Incorrect = int(all.Failed), int(all.Incorrect)
	r.Failures = all.Failures
	r.Samples = len(all.LatencyNs)
	cpuUs := median(cpus)
	r.Metrics = map[string]float64{
		"setup_s":        median(setups),
		"op_time_p10_us": quantile(all.LatencyNs, 0.1) / 1e3,
		"cpu_us_per_op":  cpuUs,
		"peak_rss_mb":    median(peaks),
	}
	r.Diagnostics = udpDiagnostics(&all)
	r.Diagnostics["ops_per_s"] = float64(all.Recv) / all.WallS
	r.Diagnostics["op_time_p50_us"] = quantile(all.LatencyNs, 0.5) / 1e3
	r.Diagnostics["op_time_p90_us"] = quantile(all.LatencyNs, 0.9) / 1e3
	r.Notes = []string{
		fmt.Sprintf("real clock, loopback UDP (not a real link); open loop (at most %d in flight per socket), %d sessions x 2 sites x %d Hz = %d datagrams/s of %d bytes from %d sockets; %s front, %d shards; %d children x %v",
			all.InFlightCap, udpSessions, udpFrameHz, udpSessions*2*udpFrameHz, udpDatagramLen, generatorSockets(), frontMode(all.Ready.Batched), all.Ready.Shards, runParts, measure/runParts),
		fmt.Sprintf("sessions per core at this cadence = 1e6 / (%d x cpu_us_per_op) = %.0f (ungated); generator CPU %.2f cores",
			2*udpFrameHz, 1e6/(2*udpFrameHz*cpuUs), all.GeneratorCPU.Seconds()/measure.Seconds()),
	}
	return r, nil
}

// merge folds another child's window into the run's account. Samples are
// pooled unsorted; counters add; high-water marks take the larger.
func (a *udpOutcome) merge(o *udpOutcome) {
	a.Sent += o.Sent
	a.Recv += o.Recv
	a.SentAll += o.SentAll
	a.RecvAll += o.RecvAll
	a.Failed += o.Failed
	a.Incorrect += o.Incorrect
	a.SocketDropped += o.SocketDropped
	a.WindowWaits += o.WindowWaits
	a.InFlightCap = o.InFlightCap
	a.OverLate += o.OverLate
	a.Failures = append(a.Failures, o.Failures...)
	a.LatencyNs = append(a.LatencyNs, o.LatencyNs...)
	a.LateNs = append(a.LateNs, o.LateNs...)
	a.WallS += o.WallS
	a.CPUNs += o.CPUNs
	a.ScrapeUs = append(a.ScrapeUs, o.ScrapeUs...)
	a.GeneratorCPU += o.GeneratorCPU
	a.Ready = o.Ready
	if o.Final.StepP99Ns > a.Final.StepP99Ns {
		a.Final.StepP99Ns = o.Final.StepP99Ns
	}
	a.Final.QueueDropped += o.Final.QueueDropped
	a.Final.Parked += o.Final.Parked
	a.Final.Unhealthy += o.Final.Unhealthy
}

// generatorSockets is how many sender/receiver goroutine pairs drive the
// relay: at most one per CPU, and two are plenty for 30 720 datagrams/s.
func generatorSockets() int { return min(runtime.NumCPU(), 2) }

func frontMode(batched bool) string {
	if batched {
		return "mmsg-batched"
	}
	return "portable"
}

// udpDiagnostics are the numbers too unsteady to gate: the tail as far as the
// sample count supports it, the relay's own step-time p99, and how late the
// generator ran.
func udpDiagnostics(o *udpOutcome) map[string]float64 {
	d := map[string]float64{
		"relay.latency_p99_us":   quantile(o.LatencyNs, 0.99) / 1e3,
		"relay.latency_p999_us":  quantile(o.LatencyNs, 0.999) / 1e3,
		"relay.step_time_p99_us": float64(o.Final.StepP99Ns) / 1e3,
		"gen.late_us_p50":        quantile(o.LateNs, 0.5) / 1e3,
		"gen.late_us_p99":        quantile(o.LateNs, 0.99) / 1e3,
		"gen.in_flight_cap":      float64(o.InFlightCap),
		"gen.window_waits":       float64(o.WindowWaits),
		"relay.delivered_late":   float64(o.OverLate),
		"relay.socket_dropped":   float64(o.SocketDropped),
		"relay.queue_dropped":    float64(o.Final.QueueDropped),
		"relay.parked":           float64(o.Final.Parked),
	}
	if o.Ready.ObsAddr != "" {
		d["relay.sessions_unhealthy"] = float64(o.Final.Unhealthy)
	}
	if q, ok := highestSupported(len(o.LatencyNs)); ok {
		d["relay.latency_highest_supported_pct"] = q * 100
		d["relay.latency_highest_supported_us"] = quantile(o.LatencyNs, q) / 1e3
	}
	if len(o.ScrapeUs) > 0 {
		d["obs.scrape_wall_us_p50"] = median(o.ScrapeUs)
	}
	return d
}
