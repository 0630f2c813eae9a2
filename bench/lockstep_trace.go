package main

import (
	"fmt"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
	"retrolock/internal/vm"
)

// The traced lockstep run cannot see inside harness.Run, so it wires the
// same two-site session from the same public pieces (virtual clock, simnet,
// netem link pair, sim conns with optional ARQ, core.Session with obs bundle,
// journal and flight recorder) and interposes on every interface a layer is
// reached through: Clock, Machine, Conn, Shaper and FlightRecorder. Each
// interposer records a span around the call it forwards; nothing else about
// the session changes, and with nil span buffers the replica is the untraced
// reference the tracing overhead is measured against. The measurement LAN
// (time server and reporters) is left out; the virtual-time figures come from
// the harness.Run of the same seed, which the replica must agree with on
// hashes and wait counts.

var (
	spRunFrame   = newSpanName("core.RunFrames")
	spHandshake  = newSpanName("core.Handshake")
	spDrain      = newSpanName("core.Drain")
	spSleep      = newSpanName("vclock.Sleep")
	spStep       = newSpanName("vm.StepFrame")
	spHash       = newSpanName("vm.StateHash")
	spSaveDelta  = newSpanName("vm.AppendSaveDelta")
	spSaveBase   = newSpanName("vm.AppendSaveBase")
	spFlight     = newSpanName("flight.RecordFrame")
	spSend       = newSpanName("transport.Send")
	spTryRecv    = newSpanName("transport.TryRecv")
	spPlan       = newSpanName("netem.Plan")
	spHarnessRun = newSpanName("harness.Run")
	spReplay     = newSpanName("vm.Replay")
)

// tracedClock forwards to the session's virtual clock. Only Sleep is spanned:
// a span there is the time the actor was parked, which is scheduler hand-off
// plus whatever the other actors did meanwhile — never a layer's self time.
type tracedClock struct {
	*vclock.Virtual
	buf *spanBuf
}

func (c tracedClock) Sleep(d time.Duration) {
	id := c.buf.begin(spSleep)
	c.Virtual.Sleep(d)
	c.buf.end(id)
}

// tracedMachine is harness's machineUnderTest (the per-frame emulation cost
// paid in virtual time) plus spans on every vm entry point the session or
// its flight recorder calls.
type tracedMachine struct {
	*vm.Console
	clock vclock.Clock
	cost  time.Duration
	buf   *spanBuf
}

func (m *tracedMachine) StepFrame(input uint16) {
	if m.cost > 0 {
		m.clock.Sleep(m.cost)
	}
	id := m.buf.begin(spStep)
	m.Console.StepFrame(input)
	m.buf.end(id)
}

func (m *tracedMachine) StateHash() uint64 {
	id := m.buf.begin(spHash)
	h := m.Console.StateHash()
	m.buf.end(id)
	return h
}

func (m *tracedMachine) AppendSaveBase(b []byte) []byte {
	id := m.buf.begin(spSaveBase)
	b = m.Console.AppendSaveBase(b)
	m.buf.end(id)
	return b
}

func (m *tracedMachine) AppendSaveDelta(b []byte) []byte {
	id := m.buf.begin(spSaveDelta)
	b = m.Console.AppendSaveDelta(b)
	m.buf.end(id)
	return b
}

// tracedConn spans Send and TryRecv of the conn the session talks to: the raw
// sim conn on clean, the ARQ conn over it on lossy. Either way the span
// covers everything down to simnet's queues (netem.Plan is its child), which
// is how the two workloads' transport rows stay comparable; simnet's own
// unit cost comes from its probe.
type tracedConn struct {
	transport.Conn
	buf *spanBuf
}

func (c *tracedConn) Send(p []byte) error {
	id := c.buf.begin(spSend)
	err := c.Conn.Send(p)
	c.buf.endN(id, len(p))
	return err
}

func (c *tracedConn) TryRecv() ([]byte, bool) {
	id := c.buf.begin(spTryRecv)
	p, ok := c.Conn.TryRecv()
	c.buf.endN(id, len(p))
	return p, ok
}

// tracedShaper spans netem's per-packet decision. A link direction is only
// ever planned from its sender's goroutine, so it shares that site's buffer.
type tracedShaper struct {
	inner simnet.Shaper
	buf   *spanBuf
}

func (s tracedShaper) Plan(now time.Time, size int) []time.Duration {
	id := s.buf.begin(spPlan)
	out := s.inner.Plan(now, size)
	s.buf.endN(id, len(out))
	return out
}

// tracedFlight spans the black box's per-frame hook.
type tracedFlight struct {
	*flight.Recorder
	buf *spanBuf
}

func (f tracedFlight) RecordFrame(frame int, input uint16, hash uint64, wait time.Duration) {
	id := f.buf.begin(spFlight)
	f.Recorder.RecordFrame(frame, input, hash, wait)
	f.buf.end(id)
}

// replicaResult is what one replica session yields.
type replicaResult struct {
	Wall   time.Duration
	Hash   [2]uint64
	Frames int // site 0
	Waits0 int // SyncInput calls that blocked, site 0
}

// runReplica runs one two-site session wired like harness.Run. bufs holds
// one span buffer per site, or nils for an untraced run; op tags the spans.
func runReplica(cfg harness.Config, bufs [2]*spanBuf, op int) (*replicaResult, error) {
	start0 := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	v := vclock.NewVirtual(start0)
	net := simnet.New(v)
	traced := bufs[0] != nil
	for _, b := range bufs {
		b.setOp(op)
	}

	link := func(seed int64) netem.Config {
		return netem.Config{
			Delay: cfg.RTT / 2, Jitter: cfg.Jitter, ProcDelay: cfg.ProcDelay,
			Loss: cfg.Loss, BurstLoss: cfg.BurstLoss, MeanBurst: cfg.MeanBurst,
			Duplicate: cfg.Duplicate, Seed: seed,
		}
	}
	addrs := [2]string{"site0", "site1"}
	for i := range addrs {
		var sh simnet.Shaper = netem.New(link(cfg.Seed + int64(i)))
		if traced {
			sh = tracedShaper{inner: sh, buf: bufs[i]}
		}
		net.SetLink(addrs[i], addrs[1-i], sh)
	}

	clocks := [2]vclock.Clock{v, v}
	if traced {
		clocks = [2]vclock.Clock{tracedClock{v, bufs[0]}, tracedClock{v, bufs[1]}}
	}
	c0, c1, err := transport.SimPair(net, addrs[0], addrs[1])
	if err != nil {
		return nil, err
	}
	conns := [2]transport.Conn{c0, c1}
	var arqs [2]*transport.ARQConn
	reg := obs.NewRegistry()
	for i := range conns {
		if cfg.ARQ {
			arqs[i] = transport.NewARQ(conns[i], clocks[i], cfg.ARQRto)
			conns[i] = arqs[i]
			transport.RegisterARQMetrics(reg, obs.SiteLabels(i), arqs[i])
		}
		if traced {
			conns[i] = &tracedConn{Conn: conns[i], buf: bufs[i]}
		}
	}

	game, err := games.Load(cfg.Game)
	if err != nil {
		return nil, err
	}
	image := game.Encode()
	var (
		sessions [2]*core.Session
		consoles [2]*vm.Console
		errs     [2]error
	)
	for site := 0; site < 2; site++ {
		console, err := game.Boot()
		if err != nil {
			return nil, err
		}
		consoles[site] = console
		m := &tracedMachine{Console: console, clock: clocks[site], cost: harness.DefaultEmulation, buf: bufs[site]}
		ses, err := core.NewSession(core.Config{SiteNo: site, NumPlayers: 2, WaitTimeout: harness.DefaultTimeout},
			clocks[site], v.Now(), m, []core.Peer{{Site: 1 - site, Conn: conns[site]}})
		if err != nil {
			return nil, err
		}
		so := core.NewSessionObs(reg, site, 0, start0)
		ses.SetObs(so)
		journal := core.NewInputJourney(reg, site, start0)
		ses.SetJournal(journal)
		core.RegisterSessionMetrics(reg, obs.SiteLabels(site), ses)
		rec := flight.NewRecorder(m, flight.Options{
			Site: site, Game: cfg.Game, ROM: image, Config: ses.Sync().Config(),
			Registry: reg, Tracer: so.Tracer, Journal: journal,
		})
		if traced {
			ses.SetFlightRecorder(tracedFlight{rec, bufs[site]})
		} else {
			ses.SetFlightRecorder(rec)
		}
		if arqs[site] != nil {
			arqs[site].SetTracer(site, so.Tracer)
			arqs[site].SetJournal(journal)
		}
		sessions[site] = ses
	}

	t0 := time.Now()
	var done [2]<-chan struct{}
	for site := 0; site < 2; site++ {
		site := site
		ses, buf := sessions[site], bufs[site]
		input := func(f int) uint16 { return harness.PlayerInput(cfg.Seed, site, f) }
		done[site] = v.Go(func() {
			id := buf.begin(spHandshake)
			err := ses.Handshake(10 * time.Second)
			buf.end(id)
			// One RunFrames call per frame gives every frame its own root
			// span; the loop inside RunFrames is the same either way.
			for f := 0; f < cfg.Frames && err == nil; f++ {
				id := buf.begin(spRunFrame)
				err = ses.RunFrames(1, input, nil)
				buf.end(id)
			}
			if err == nil {
				id := buf.begin(spDrain)
				ses.Drain(5 * time.Second)
				buf.end(id)
			}
			errs[site] = err
		})
	}
	<-done[0]
	<-done[1]
	out := &replicaResult{Wall: time.Since(t0)}
	for site, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replica site %d: %w", site, err)
		}
	}

	out.Hash = [2]uint64{consoles[0].StateHash(), consoles[1].StateHash()}
	out.Frames = consoles[0].FrameCount()
	out.Waits0 = sessions[0].Sync().Stats().Waits
	return out, nil
}

// tracedReplay is the single-machine replay of a session's merged inputs
// with a span around every vm call: the source of the vm.* unit costs and,
// through its final hash, the check that the replica executed those inputs.
func tracedReplay(cfg harness.Config, lag int, buf *spanBuf, op int) (uint64, error) {
	game, err := games.Load(cfg.Game)
	if err != nil {
		return 0, err
	}
	console, err := game.Boot()
	if err != nil {
		return 0, err
	}
	buf.setOp(op)
	root := buf.begin(spReplay)
	m := &tracedMachine{Console: console, buf: buf}
	delta := m.AppendSaveBase(nil)
	for f := 0; f < cfg.Frames; f++ {
		m.StepFrame(mergedInput(cfg.Seed, lag, f))
		m.StateHash()
		delta = m.AppendSaveDelta(delta[:0])
	}
	buf.endN(root, cfg.Frames)
	return console.StateHash(), nil
}
