// Package rig builds one instrumented lockstep site — the unit the paper's
// testbed repeats (§4.1): a console running the game, the sync module over a
// link to the other sites, and the telemetry every session in this
// repository carries (SessionObs, input-journey journal, sync metrics,
// flight recorder, health engine). The experiment harness, the chaos
// harness, cmd/retroplay and examples/netplay all build their sites here and
// keep only what is their own: the conn stack and its shaping, fault phases,
// sockets and flags.
package rig

import (
	"errors"
	"fmt"
	"os"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/obs"
	"retrolock/internal/rom"
	"retrolock/internal/span"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
	"retrolock/internal/vm"
)

// Spec is what a caller decides about one site.
type Spec struct {
	// Clock is the site's own clock; the emulation cost is charged on it.
	Clock vclock.Clock
	// Game names the ROM in flight bundles; ROM is booted into the console.
	Game string
	ROM  *rom.ROM
	// Config configures the sync module; Config.SiteNo is the site number.
	Config core.Config
	// Peers are the site's links, over the conn stack the caller built.
	Peers []core.Peer
	// ARQ and Checksum are that stack's layers (nil when it has none); the
	// rig registers their metrics and feeds ARQ retransmissions to the
	// tracer, the journal and the health engine.
	ARQ      *transport.ARQConn
	Checksum *transport.ChecksumConn
	// Registry receives every series the site publishes (nil: a new one).
	Registry *obs.Registry
	// Cost is the clock time one frame's emulation takes (zero on the host
	// clock, where emulation takes real time anyway).
	Cost time.Duration
	// TraceEvents sizes the frame-event tracer (0: no tracer).
	TraceEvents int
	// FlightDir is where the flight recorder writes incident bundles; ""
	// falls back to $RETROLOCK_FLIGHT_DIR, and both empty write nothing.
	FlightDir string
	// StallThreshold is the SyncInput wait that counts as a liveness
	// incident (0: none does).
	StallThreshold time.Duration
	// Rollback builds the timewarp baseline (§5) instead of a lockstep
	// session; it gets no journal and no flight recorder.
	Rollback bool
	// Options customize the lockstep session (pacer, adaptive lag).
	Options []core.SessionOption
}

// Site is one built site: the lockstep session (nil in rollback mode) and
// everything attached to it.
type Site struct {
	*core.Session
	Rollback *core.RollbackSession
	Machine  *Machine
	Obs      *obs.SessionObs
	Journal  *span.Journal    // nil in rollback mode
	Flight   *flight.Recorder // nil in rollback mode
	reg      *obs.Registry
	arq      *transport.ARQConn
}

// Machine is the console a site steps. It charges each frame's emulation
// cost on the site's clock before the transition, which is how a virtual
// clock sees the CPU time a real console would spend.
type Machine struct {
	*vm.Console
	clock vclock.Clock
	cost  time.Duration
}

// StepFrame implements core.Machine.
func (m *Machine) StepFrame(input uint16) {
	if m.cost > 0 {
		m.clock.Sleep(m.cost)
	}
	m.Console.StepFrame(input)
}

// New boots sp.ROM and builds the site over sp.Peers. A lockstep site gets
// its SessionObs, journal, sync metrics and a flight recorder, which is also
// registered as the site's /debug/flight/dump producer; a rollback site gets
// its SessionObs and rollback metrics.
func New(sp Spec) (*Site, error) {
	console, err := sp.ROM.Boot()
	if err != nil {
		return nil, err
	}
	reg := sp.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	site, epoch := sp.Config.SiteNo, sp.Clock.Now()
	labels := obs.SiteLabels(site)
	s := &Site{Machine: &Machine{Console: console, clock: sp.Clock, cost: sp.Cost}, reg: reg, arq: sp.ARQ}
	s.Obs = core.NewSessionObs(reg, site, sp.TraceEvents, epoch)
	if sp.ARQ != nil {
		transport.RegisterARQMetrics(reg, labels, sp.ARQ)
		sp.ARQ.SetTracer(site, s.Obs.Tracer)
	}
	if sp.Checksum != nil {
		transport.RegisterChecksumMetrics(reg, labels, sp.Checksum)
	}
	if sp.Rollback {
		s.Rollback, err = core.NewRollbackSession(sp.Config, sp.Clock, epoch, s.Machine, sp.Peers, core.DefaultPredictionWindow)
		if err != nil {
			return nil, err
		}
		s.Rollback.SetObs(s.Obs)
		core.RegisterRollbackMetrics(reg, labels, s.Rollback)
		return s, nil
	}
	if s.Session, err = core.NewSession(sp.Config, sp.Clock, epoch, s.Machine, sp.Peers, sp.Options...); err != nil {
		return nil, err
	}
	s.SetObs(s.Obs)
	s.Journal = core.NewInputJourney(reg, site, epoch)
	s.SetJournal(s.Journal)
	if sp.ARQ != nil {
		sp.ARQ.SetJournal(s.Journal)
	}
	core.RegisterSessionMetrics(reg, labels, s.Session)
	dir := sp.FlightDir
	if dir == "" {
		dir = os.Getenv("RETROLOCK_FLIGHT_DIR")
	}
	s.Flight = flight.NewRecorder(s.Machine, flight.Options{
		Site:           site,
		Game:           sp.Game,
		ROM:            sp.ROM.Encode(),
		Config:         s.Sync().Config(),
		Dir:            dir,
		StallThreshold: sp.StallThreshold,
		Registry:       reg,
		Tracer:         s.Obs.Tracer,
		Journal:        s.Journal,
	})
	s.SetFlightRecorder(s.Flight)
	reg.AddDump(fmt.Sprintf("site%d", site), s.Flight.Dump)
	return s, nil
}

// NewHealth builds and registers the health SLO engine of a lockstep site.
// It grades the site's frame-time and RTT histograms, its journal's
// cross-site skew and, over ARQ, the retransmissions per frame against the
// paper's feasibility region; callers drive Evaluate at a frame cadence.
func (s *Site) NewHealth(cfg obs.HealthConfig) *obs.Health {
	src := obs.HealthSources{
		FrameTime: s.Obs.FrameTime,
		RTT:       s.Obs.RTT,
		Skew:      s.Journal.Skew,
		Frames:    func() int64 { return int64(s.Machine.FrameCount()) },
	}
	if s.arq != nil {
		src.Retransmits = func() int64 { return int64(s.arq.Retransmissions()) }
	}
	h := obs.NewHealth(cfg, src)
	if s.Obs.Tracer != nil {
		h.SetTracer(s.Obs.Site, s.Obs.Tracer)
	}
	h.Register(s.reg, s.Obs.Site)
	return h
}

// Play is a lockstep site's whole session: the start handshake, frames
// frames, then a drain so that the peers' last frames still get this site's
// inputs.
func (s *Site) Play(frames int, input func(frame int) uint16, onFrame func(core.FrameInfo)) error {
	if err := s.Handshake(10 * time.Second); err != nil {
		return err
	}
	err := s.RunFrames(frames, input, onFrame)
	s.Drain(5 * time.Second)
	return err
}

// Run calls body once for each of n sites, concurrently, and returns when
// every call has, with their errors joined and prefixed by their site. On a
// virtual clock the calls are actors of v, all spawned from one root actor
// so that none runs before every one exists (vclock.Virtual's spawn idiom);
// with v nil they are goroutines on the host clock.
func Run(v *vclock.Virtual, n int, body func(site int) error) error {
	errs := make([]error, n)
	done := make([]<-chan struct{}, n)
	spawn := func() {
		for i := range done {
			play := func() {
				if err := body(i); err != nil {
					errs[i] = fmt.Errorf("site %d: %w", i, err)
				}
			}
			if v != nil {
				done[i] = v.Go(play)
				continue
			}
			ch := make(chan struct{})
			done[i] = ch
			go func() {
				defer close(ch)
				play()
			}()
		}
	}
	if v != nil {
		<-v.Go(spawn)
	} else {
		spawn()
	}
	for _, d := range done {
		<-d
	}
	return errors.Join(errs...)
}
