// Package trafficgen is the QoE load generator: it models thousands of
// concurrent relayed game sessions — input cadence with jitter, think-time
// idles, leave/rejoin churn — and drives them through a live relay daemon
// over emulated access links, grading every session with the health engine.
//
// The paper's evaluation (§4) measures a handful of sessions on a physical
// testbed; this package is the scaled-up, repeatable version of that
// experiment. Every Run executes in virtual time and deterministically:
// the same model and seed produce bit-identical results, which is what lets
// `make qoe` diff a sweep of runs over every link profile against a
// checked-in verdict table. Load over real sockets and the wall clock is the benchmark's
// relay_udp_* workloads' job (bench/), not this package's.
//
// Sessions speak the relay's native datagram format (token prefix + site
// byte, relay.PutHeader) with a small generator payload carrying the send
// instant, so one-way relay latency is measured end to end: client link →
// front → shard → front → client link. Verdicts combine the health engine's
// latency grade with a delivery-rate grade, mirroring how the paper
// separates "slow" from "lossy" infeasibility.
package trafficgen

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/relay"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// Epoch anchors virtual-time runs (same convention as the chaos and soak
// suites: the paper's submission date).
var Epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// Generator payload layout, after the relay's HeaderLen prefix:
//
//	[0:8)   send instant, ns since the run epoch (big endian)
//	[8:16)  token echo (big endian) — integrity check at the receiver
//	[16]    sender site — cross-checked against the relay prefix
//	[17:)   deterministic filler up to payloadBytes
const (
	genHeaderLen = 17
	payloadBytes = 24 // generator payload size beyond the relay prefix
)

// QoE grading thresholds. The latency bounds sit just above the histogram's
// power-of-two bucket bounds (67.1 ms, 134.2 ms), so a graded quantile lands
// decisively on one side: a measured one-way relay latency whose median
// falls in the (16.8, 67.1] ms buckets grades healthy, (67.1, 134.2] ms
// degraded, and beyond infeasible — the relayed-path equivalent of the
// paper's 140 ms RTT cliff.
const (
	OneWayDegraded   = 68 * time.Millisecond
	OneWayInfeasible = 135 * time.Millisecond

	// Delivery-rate grades in basis points: below 95% delivered is degraded
	// (rollback can mask it, lockstep stalls), below 80% infeasible.
	deliveryDegradedBp   = 9500
	deliveryInfeasibleBp = 8000
)

// ThinkModel injects idle stretches: roughly Every (uniformly jittered
// ±50%), the session stops producing inputs for For — a player reading a
// level-intro screen. Zero Every disables thinking.
type ThinkModel struct {
	Every time.Duration
	For   time.Duration
}

// ChurnModel injects leave/rejoin churn: roughly LeaveEvery (uniformly
// jittered ±50%) the session goes fully silent for DownFor, then rejoins by
// re-binding both sites (header-only datagrams) before payload traffic
// resumes. Zero LeaveEvery disables churn.
type ChurnModel struct {
	LeaveEvery time.Duration
	DownFor    time.Duration
}

// Model parameterizes a synthetic session population.
type Model struct {
	// Sessions is the concurrent modeled session count (default 256).
	Sessions int
	// Drivers is how many generator actors multiplex the sessions (default
	// 16, clamped to Sessions). Each driver owns a disjoint slice of
	// sessions and a pair of emulated endpoints, one per site.
	Drivers int
	// Think and Churn shape each session's activity; zero values disable.
	Think ThinkModel
	Churn ChurnModel
	// Seed drives every per-session RNG (default 1).
	Seed int64

	// cadenceJitter widens each inter-input gap uniformly by ± this
	// fraction of the period (zero: a metronome). make qoe's sweep sets 0.2
	// — human button timing is not a metronome.
	cadenceJitter float64
	// joinSpread staggers session starts uniformly across this window from
	// the run start (zero: joinWindow), modeling a lobby filling up.
	joinSpread time.Duration
}

// The session population's shape.
const (
	// inputHz is the nominal per-site input cadence.
	inputHz = 60
	// joinWindow is the default joinSpread.
	joinWindow = 250 * time.Millisecond
)

func (m Model) withDefaults() Model {
	if m.Sessions <= 0 {
		m.Sessions = 256
	}
	if m.Drivers <= 0 {
		m.Drivers = 16
	}
	if m.Drivers > m.Sessions {
		m.Drivers = m.Sessions
	}
	if m.joinSpread <= 0 {
		m.joinSpread = joinWindow
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	return m
}

// RunConfig is one generator run against one link profile.
type RunConfig struct {
	Model   Model
	Profile string // named netem profile (netem.Profiles); default "wifi"
	// Shards sizes the relay daemon; the run always creates exactly one
	// front per shard (shard i writes through front i), which pins the
	// reader→shard fan-in and keeps virtual-time runs deterministic.
	Shards int
	// Measure is the graded window (default 2 s).
	Measure time.Duration
	// Capture, when set, records the client-side view of the run: every
	// generator send and delivery, relay prefix included.
	Capture *capture.Recorder
	// relayTap, when set, is installed as the daemon's capture tap
	// (relay.Config.Tap) — the relay-side view of the same traffic.
	relayTap *capture.Recorder
	// warmup precedes the measured window (zero: warmupWindow). drain lets
	// in-flight measured datagrams land before the run stops (zero:
	// drainWindow).
	warmup, drain time.Duration
}

const (
	// warmupWindow is the default warmup: longer than joinWindow, so
	// grading only sees steady state.
	warmupWindow = 600 * time.Millisecond
	// drainWindow is the default drain.
	drainWindow = 400 * time.Millisecond
)

func (c RunConfig) withDefaults() RunConfig {
	c.Model = c.Model.withDefaults()
	if c.Profile == "" {
		c.Profile = "wifi"
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.warmup <= 0 {
		c.warmup = warmupWindow
	}
	if c.Measure <= 0 {
		c.Measure = 2 * time.Second
	}
	if c.drain <= 0 {
		c.drain = drainWindow
	}
	return c
}

// Result is one graded run.
type Result struct {
	Profile  string
	Sessions int
	// Verdict counts over the session population.
	Healthy, Degraded, Infeasible int
	// Sent / Recv count measured-window payload datagrams (per delivered
	// direction; each datagram is sent once and delivered at most once).
	Sent, Recv int64
	// Latency aggregates every session's measured one-way relay latency.
	Latency *obs.Histogram
	// LeakErrs / IntegrityErrs / MiswireErrs must be zero: a nonzero value
	// means the relay delivered a foreign session's datagram, corrupted a
	// payload, or swapped the sites.
	LeakErrs, IntegrityErrs, MiswireErrs int64
	// Registry exposes the run's series (latency histogram, delivery
	// counters, the relay daemon's counters) in the observability registry
	// format.
	Registry *obs.Registry
	// Elapsed is the run duration on the run's own clock.
	Elapsed time.Duration
}

// driverTick is the generator actors' wake cadence. Sessions' modeled send
// instants are quantized to it; latency is still measured from the actual
// (stamped) send instant, so the quantization does not bias the grades.
const driverTick = 2 * time.Millisecond

// driverStagger phase-offsets driver j's wake grid. 501 µs is coprime to the
// relay's 200 µs poll grid and to driverTick, so no driver ever wakes at the
// same virtual instant as the relay's poll loop (or another driver) — the
// ordering hazard that would make virtual runs scheduling-
// dependent (see Daemon.StartVirtual).
func driverStagger(j int) time.Duration {
	return time.Duration(j+1) * 501 * time.Microsecond
}

// session is one modeled session, owned exclusively by its driver.
type session struct {
	token relay.Token
	front string
	rng   *rng

	// due is the earliest instant, as an offset from the run epoch, at
	// which stepSession can change anything (see nextDue): until then the
	// driver skips the session.
	due time.Duration

	startAt    time.Time
	started    bool
	next       [2]time.Time // per-site next modeled send instant
	thinkUntil time.Time
	nextThink  time.Time
	downUntil  time.Time
	nextLeave  time.Time
	rebind     bool

	sent, recv int64
	lat        *obs.Histogram
	state      obs.HealthState
}

// driver is one generator actor: a disjoint set of sessions and one
// emulated endpoint per site.
type driver struct {
	idx      int
	epA, epB *simnet.Endpoint
	own      []*session
	byToken  map[relay.Token]*session
	buf      []byte

	leak, integrity, miswire int64
}

// engine is the shared run state.
type engine struct {
	cfg     RunConfig
	clock   *vclock.Virtual
	net     *simnet.Network
	epoch   time.Time
	mStart  time.Time // measure window [mStart, mEnd)
	mEnd    time.Time
	stop    atomic.Bool
	agg     *obs.Histogram
	daemon  *relay.Daemon
	drivers []*driver
}

// Run executes one generator run in virtual time. Deterministic: the same
// RunConfig yields a bit-identical Result (and capture, when attached).
func Run(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	m := cfg.Model

	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	v, d := e.clock, e.daemon

	// Admission: place every session up front; session i joins at a
	// deterministic offset inside the joinSpread window.
	sessions := make([]*session, m.Sessions)
	for i := range sessions {
		p, err := d.Place()
		if err != nil {
			d.Close()
			return nil, err
		}
		s := &session{
			token:   p.Token,
			front:   p.Addr,
			rng:     newRng(m.Seed + int64(i)*7919),
			startAt: e.epoch.Add(time.Duration(i+1) * m.joinSpread / time.Duration(m.Sessions+1)),
			lat:     &obs.Histogram{},
		}
		sessions[i] = s
		dr := e.drivers[i%m.Drivers]
		dr.own = append(dr.own, s)
		dr.byToken[s.token] = s
	}

	total := cfg.warmup + cfg.Measure + cfg.drain
	var dones []<-chan struct{}
	// The wiring runs as one root actor, so no controller, relay loop or
	// driver runs (and the clock stands still) until all are registered.
	<-v.Go(func() {
		dones = append(dones, v.Go(func() { e.stopAfter(total) }), d.StartVirtual(v))
		for _, dr := range e.drivers {
			dones = append(dones, v.Go(func() { e.runDriver(dr) }))
		}
	})
	for _, done := range dones {
		<-done
	}

	return e.grade(sessions, total), nil
}

// newEngine builds Run's world on a fresh virtual clock: one relay front per
// shard (see RunConfig.Shards), a relay daemon sized for cfg.Model.Sessions,
// cfg.Model.Drivers drivers with two endpoints and a send buffer each, and
// the run profile on every driver<->front link.
func newEngine(cfg RunConfig) (*engine, error) {
	v := vclock.NewVirtual(Epoch)
	e := &engine{cfg: cfg, clock: v, net: simnet.New(v), agg: &obs.Histogram{}}
	e.epoch = v.Now()
	e.mStart = e.epoch.Add(cfg.warmup)
	e.mEnd = e.mStart.Add(cfg.Measure)

	fronts := make([]relay.Front, cfg.Shards)
	frontAddrs := make([]string, cfg.Shards)
	for i := range fronts {
		ep := e.net.MustBind(fmt.Sprintf("relay-%d", i))
		ep.SetQueueCap(1 << 16)
		fronts[i] = relay.NewSimFront(ep)
		frontAddrs[i] = ep.Addr()
	}
	d, err := relay.NewDaemon(relay.Config{
		Shards:      cfg.Shards,
		MaxSessions: cfg.Model.Sessions/cfg.Shards + cfg.Shards,
		QueueLen:    1 << 14,
		WriteBatch:  256,
		SessionTTL:  time.Hour,
		Clock:       v,
		Seed:        cfg.Model.Seed,
		Tap:         cfg.relayTap,
	}, fronts)
	if err != nil {
		return nil, err
	}
	e.daemon = d

	e.drivers = make([]*driver, cfg.Model.Drivers)
	for j := range e.drivers {
		epA := e.net.MustBind(fmt.Sprintf("genA-%d", j))
		epB := e.net.MustBind(fmt.Sprintf("genB-%d", j))
		epA.SetQueueCap(1 << 14)
		epB.SetQueueCap(1 << 14)
		e.drivers[j] = &driver{
			idx: j, epA: epA, epB: epB,
			byToken: make(map[relay.Token]*session),
			buf:     newSendBuf(),
		}
	}
	if err := e.shapeLinks(frontAddrs); err != nil {
		d.Close()
		return nil, err
	}
	return e, nil
}

// stopAfter is the controller actor: after total it stops the drivers and
// the relay, inside the world, so the relay's last poll lands at a virtual
// instant the run fixes and its counters and tap capture repeat exactly.
func (e *engine) stopAfter(total time.Duration) {
	e.clock.Sleep(total)
	e.stop.Store(true)
	_ = e.daemon.Close()
}

// shapeLinks installs the run profile on every driver<->front link. Driver
// j's endpoints get a per-direction profile pair against every front, each
// with its own seed, so every link's loss/jitter stream is independent and
// reproducible.
func (e *engine) shapeLinks(frontAddrs []string) error {
	for j, dr := range e.drivers {
		for fi, fa := range frontAddrs {
			seed := e.cfg.Model.Seed + int64(j)*1000 + int64(fi)*4
			for ei, ep := range []*simnet.Endpoint{dr.epA, dr.epB} {
				fwd, rev, err := netem.Profile(e.cfg.Profile, seed+int64(ei)*2)
				if err != nil {
					return err
				}
				e.net.SetLink(ep.Addr(), fa, netem.New(fwd))
				e.net.SetLink(fa, ep.Addr(), netem.New(rev))
			}
		}
	}
	return nil
}

func newSendBuf() []byte {
	buf := make([]byte, relay.HeaderLen+payloadBytes)
	for i := relay.HeaderLen + genHeaderLen; i < len(buf); i++ {
		buf[i] = 0x5a
	}
	return buf
}

// runDriver is the generator actor loop: wake on the staggered grid, advance
// every owned session that is due, in order, and drain both endpoints. Most
// ticks find a session with nothing to do; skipping it before its due
// instant skips only calls that would change nothing.
func (e *engine) runDriver(dr *driver) {
	e.clock.Sleep(driverStagger(dr.idx))
	for !e.stop.Load() {
		now := e.clock.Now()
		at := now.Sub(e.epoch)
		for _, s := range dr.own {
			if s.due > at {
				continue
			}
			e.stepSession(dr, s, now)
			s.due = s.nextDue(&e.cfg.Model).Sub(e.epoch)
		}
		e.drain(dr, dr.epA, 0, now)
		e.drain(dr, dr.epB, 1, now)
		e.clock.Sleep(driverTick)
	}
}

// stepSession advances one session's model to now, emitting whatever the
// model says it owes: binds on (re)join, payload datagrams on its jittered
// cadence, silence through think-time and churn downtime.
func (e *engine) stepSession(dr *driver, s *session, now time.Time) {
	m := &e.cfg.Model
	if now.Before(s.startAt) {
		return
	}
	if !s.started {
		s.started = true
		s.next[0], s.next[1] = s.startAt, s.startAt
		if m.Think.Every > 0 {
			s.nextThink = s.startAt.Add(s.rng.jittered(m.Think.Every))
		}
		if m.Churn.LeaveEvery > 0 {
			s.nextLeave = s.startAt.Add(s.rng.jittered(m.Churn.LeaveEvery))
		}
		e.sendBind(dr, s, now)
	}
	if m.Churn.LeaveEvery > 0 && !now.Before(s.nextLeave) {
		s.downUntil = now.Add(m.Churn.DownFor)
		s.nextLeave = now.Add(m.Churn.DownFor + s.rng.jittered(m.Churn.LeaveEvery))
		s.rebind = true
	}
	if now.Before(s.downUntil) {
		for site := range s.next {
			if s.next[site].Before(s.downUntil) {
				s.next[site] = s.downUntil
			}
		}
		return
	}
	if s.rebind {
		s.rebind = false
		e.sendBind(dr, s, now)
	}
	if m.Think.Every > 0 && !now.Before(s.nextThink) {
		s.thinkUntil = now.Add(m.Think.For)
		s.nextThink = now.Add(m.Think.For + s.rng.jittered(m.Think.Every))
	}
	if now.Before(s.thinkUntil) {
		for site := range s.next {
			if s.next[site].Before(s.thinkUntil) {
				s.next[site] = s.thinkUntil
			}
		}
		return
	}
	period := time.Second / inputHz
	for site := 0; site < 2; site++ {
		for !s.next[site].After(now) {
			e.sendPayload(dr, s, site, now)
			s.next[site] = s.next[site].Add(s.rng.spread(period, m.cadenceJitter))
		}
	}
}

// nextDue is the earliest instant at which stepSession can next act: the
// join before the session starts; then the first of either site's next
// send, its next leave (with churn), its next think (with think time) and,
// while a rebind is pending, the end of its down time, which can come
// before either send. Down time and think time push the sends past their
// end, so a step before nextDue changes nothing.
func (s *session) nextDue(m *Model) time.Time {
	if !s.started {
		return s.startAt
	}
	due := s.next[0]
	if s.next[1].Before(due) {
		due = s.next[1]
	}
	if m.Churn.LeaveEvery > 0 && s.nextLeave.Before(due) {
		due = s.nextLeave
	}
	if m.Think.Every > 0 && s.nextThink.Before(due) {
		due = s.nextThink
	}
	if s.rebind && s.downUntil.Before(due) {
		due = s.downUntil
	}
	return due
}

// sendBind emits a header-only datagram per site — the relay's slot-claim /
// keepalive shape (see Shard.ingest).
func (e *engine) sendBind(dr *driver, s *session, now time.Time) {
	for site := 0; site < 2; site++ {
		n := relay.PutHeader(dr.buf, s.token, site)
		e.cfg.Capture.Record(now, capture.DirSend, site, dr.buf[:n])
		_ = e.siteEp(dr, site).SendTo(s.front, dr.buf[:n])
	}
}

func (e *engine) sendPayload(dr *driver, s *session, site int, now time.Time) {
	n := relay.PutHeader(dr.buf, s.token, site)
	pl := dr.buf[n:]
	binary.BigEndian.PutUint64(pl[0:8], uint64(now.Sub(e.epoch)))
	binary.BigEndian.PutUint64(pl[8:16], uint64(s.token))
	pl[16] = byte(site)
	e.cfg.Capture.Record(now, capture.DirSend, site, dr.buf)
	_ = e.siteEp(dr, site).SendTo(s.front, dr.buf)
	if e.inWindow(now) {
		s.sent++
	}
}

func (e *engine) siteEp(dr *driver, site int) *simnet.Endpoint {
	if site == 1 {
		return dr.epB
	}
	return dr.epA
}

func (e *engine) inWindow(t time.Time) bool {
	return !t.Before(e.mStart) && t.Before(e.mEnd)
}

// drain empties one endpoint, verifying every delivered datagram's session
// ownership, site wiring and payload integrity, and observing its one-way
// latency when the send stamp falls in the measured window.
func (e *engine) drain(dr *driver, ep *simnet.Endpoint, site int, now time.Time) {
	for {
		g, ok := ep.TryRecv()
		if !ok {
			return
		}
		tok, fromSite, pl, hok := relay.ParseHeader(g.Payload)
		if !hok {
			dr.integrity++
			continue
		}
		s, mine := dr.byToken[tok]
		if !mine {
			dr.leak++
			continue
		}
		if fromSite != 1-site {
			dr.miswire++
			continue
		}
		if len(pl) < genHeaderLen {
			// Too short to carry the generator stamp: delivered, but
			// unmeasurable.
			continue
		}
		if relay.Token(binary.BigEndian.Uint64(pl[8:16])) != tok || int(pl[16]) != fromSite {
			dr.integrity++
			continue
		}
		e.cfg.Capture.Record(now, capture.DirRecv, site, g.Payload)
		sentAt := e.epoch.Add(time.Duration(binary.BigEndian.Uint64(pl[0:8])))
		if e.inWindow(sentAt) {
			lat := now.Sub(sentAt).Nanoseconds()
			s.lat.Observe(lat)
			e.agg.Observe(lat)
			s.recv++
		}
	}
}

// grade turns the raw per-session series into verdicts and assembles the
// Result. Verdict = worse(latency grade from the health engine, delivery-
// rate grade) — a session can be infeasible because the relayed path is too
// slow or because too little of its traffic survives it.
func (e *engine) grade(sessions []*session, total time.Duration) *Result {
	end := e.epoch.Add(total)
	r := &Result{
		Profile:  e.cfg.Profile,
		Sessions: len(sessions),
		Latency:  e.agg,
		Registry: obs.NewRegistry(),
		Elapsed:  e.clock.Now().Sub(e.epoch),
	}
	for _, dr := range e.drivers {
		r.LeakErrs += dr.leak
		r.IntegrityErrs += dr.integrity
		r.MiswireErrs += dr.miswire
	}
	for _, s := range sessions {
		h := obs.NewHealth(obs.HealthConfig{
			RTTDegraded:   OneWayDegraded,
			RTTInfeasible: OneWayInfeasible,
		}, obs.HealthSources{RTT: s.lat})
		s.state = h.Evaluate(end)
		if rg := deliveryGrade(s.sent, s.recv); rg > s.state {
			s.state = rg
		}
		switch s.state {
		case obs.Healthy:
			r.Healthy++
		case obs.Degraded:
			r.Degraded++
		default:
			r.Infeasible++
		}
		r.Sent += s.sent
		r.Recv += s.recv
	}
	relay.RegisterMetrics(r.Registry, e.daemon)
	labels := obs.Labels{"profile": r.Profile}
	r.Registry.AddHistogram("qoe_one_way_latency_ns", labels,
		"measured one-way relay latency across all sessions", e.agg)
	sent, recv := r.Sent, r.Recv
	r.Registry.CounterFunc("qoe_datagrams_sent_total", labels,
		"measured-window payload datagrams sent", func() float64 { return float64(sent) })
	r.Registry.CounterFunc("qoe_datagrams_delivered_total", labels,
		"measured-window payload datagrams delivered", func() float64 { return float64(recv) })
	return r
}

func deliveryGrade(sent, recv int64) obs.HealthState {
	if sent == 0 {
		return obs.Healthy
	}
	switch bp := recv * 10000 / sent; {
	case bp < deliveryInfeasibleBp:
		return obs.Infeasible
	case bp < deliveryDegradedBp:
		return obs.Degraded
	default:
		return obs.Healthy
	}
}
