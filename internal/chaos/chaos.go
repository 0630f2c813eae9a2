// Package chaos is a deterministic fault-injection harness for the sync
// stack. It composes time-scheduled fault phases — Gilbert-Elliott loss
// bursts, full or asymmetric partitions, bit-flip corruption, duplicate and
// reorder storms, clock-rate skew between sites — on top of internal/netem
// and internal/simnet, runs a complete two-site internal/core session
// through them in virtual time, and records enough per-phase state to assert
// a reusable invariant suite afterwards (see Report.Verify):
//
//   - state-hash agreement at every matched frame
//   - liveness: sites keep executing frames through phases that promise
//     progress (and after a partition heals), or the run fails loudly via
//     SyncInput's wait timeout
//   - bounded memory: the input ring window and the ARQ unacked /
//     out-of-order buffers stay within their designed bounds in every phase
//   - ack and retransmission sanity
//
// Everything — PRNGs, the event clock, phase boundaries — is seeded and
// virtual, so a scenario run twice produces bit-identical reports; a soak
// that passes once can never flake.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/span"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// Epoch anchors every chaos run's virtual clock (the date of the paper's
// camera-ready, like the experiment harness).
var Epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// Phase is one timed segment of a scenario's fault schedule.
type Phase struct {
	// Name labels the phase in reports and failures.
	Name string

	// Duration is the phase's length in virtual time. The last phase of a
	// scenario runs until the sessions finish regardless of its Duration.
	Duration time.Duration

	// AB and BA shape the two link directions (site0->site1 and
	// site1->site0) for the duration of the phase. nil means a clean link
	// (simnet's minimum delay). The Seed field is overwritten by the
	// scheduler so each phase gets an independent, reproducible PRNG.
	AB, BA *netem.Config

	// PartitionAB / PartitionBA black-hole the respective direction for
	// the whole phase, overriding AB/BA. Setting one of them models an
	// asymmetric partition; both, a full one.
	PartitionAB, PartitionBA bool

	// ClockRate skews site 1's clock relative to real (virtual) time for
	// the duration of the phase: 1.02 runs it 2% fast, 0.98 slow. Zero
	// means 1.0 (no skew). Site 0 always runs on the true clock, so the
	// skew is a rate difference between the sites.
	ClockRate float64

	// WantProgress asserts (in Verify) that both sites executed at least
	// one frame during the phase. Set it on calm and healed phases; leave
	// it off for partitions, where lockstep is expected to stall.
	WantProgress bool
}

// Scenario is a complete chaos experiment: a session configuration plus a
// fault schedule.
type Scenario struct {
	Name string
	// Seed drives every PRNG in the run (per-phase link emulators and the
	// synthetic player inputs).
	Seed int64
	// Frames is how many frames each site executes (default 3600).
	Frames int
	// Game selects the ROM (default "pong").
	Game string
	// WaitTimeout bounds each SyncInput wait (default 60s virtual); a
	// partition outlasting it fails the run loudly instead of hanging.
	WaitTimeout time.Duration
	// ARQ routes the session traffic through the reliable in-order
	// transport (transport.ARQConn) instead of raw datagrams.
	ARQ bool
	// TraceEvents, when positive, attaches a fixed-capacity frame-event
	// tracer of that many slots to each site (plus the ARQ layer in ARQ
	// mode). The freshest events survive in Report.Traces; zero disables
	// tracing entirely.
	TraceEvents int
	// HealthEvery, when positive, runs the health SLO engine on site 0,
	// evaluating one window every HealthEvery frames. Transitions land in
	// Report.Health with the frame they were detected at — deterministic
	// under virtual time, so a scenario asserts exact flip frames.
	HealthEvery int
	// Health overrides the engine's thresholds (nil = obs defaults). Only
	// read when HealthEvery > 0.
	Health *obs.HealthConfig
	// Corrupt injects a single-byte state corruption into one site's
	// machine mid-session — a synthetic determinism bug that exercises the
	// hash-exchange divergence detector and the flight-recorder triage
	// pipeline end to end.
	Corrupt *Corruption
	// FlightDir is where each site's black box auto-writes its incident
	// bundle. Empty falls back to the RETROLOCK_FLIGHT_DIR environment
	// variable (how CI collects bundles from failing runs); when both are
	// empty the recorders still run (they are bounded and cheap) but write
	// nothing — Report.DumpFlight can still flush them afterwards.
	FlightDir string
	// Phases is the fault schedule. Empty means one clean 10 s phase.
	Phases []Phase
}

// HealthTransition is one health-engine state change, attributed to the
// frame whose evaluation detected it.
type HealthTransition struct {
	Frame    int
	From, To obs.HealthState
}

// Corruption is a deliberate mid-session divergence: before executing Frame
// on the given Site, the byte at Addr is XORed with XOR (which must be
// non-zero to have any effect). Pick an address the game never writes and
// the corruption persists into every later state hash.
type Corruption struct {
	Site  int
	Frame int
	Addr  uint16
	XOR   byte
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Frames == 0 {
		sc.Frames = 3600
	}
	if sc.Game == "" {
		sc.Game = "pong"
	}
	if sc.WaitTimeout == 0 {
		sc.WaitTimeout = 60 * time.Second
	}
	if len(sc.Phases) == 0 {
		sc.Phases = []Phase{{Name: "clean", Duration: 10 * time.Second, WantProgress: true}}
	}
	return sc
}

// LinkPlan tracks the per-phase link emulators the scheduler installed, so
// callers can read each phase's traffic counters after the run.
type LinkPlan struct {
	// AB[i] / BA[i] are the emulators that shaped each direction during
	// phase i — nil if the run ended before the phase was entered.
	AB, BA []*netem.Emulator
}

// linkConfig resolves one direction of a phase to a concrete netem config.
func linkConfig(pc *netem.Config, partition bool, seed int64) netem.Config {
	var c netem.Config
	if pc != nil {
		c = *pc
	}
	if partition {
		// A partition is total loss: every packet consults the PRNG and
		// drops, so the schedule stays deterministic and the emulator's
		// counters record how much traffic the outage ate.
		c.Loss = 1
		c.BurstLoss = false
	}
	c.Seed = seed
	return c
}

// InstallPhases drives a fault schedule on the a<->b link: phase 0 is
// installed immediately and each later phase at its cumulative offset, with
// fresh per-phase emulators seeded from seed (so a phase's counters are
// exactly that phase's traffic). onEnter, when non-nil, runs at each phase
// entry with the freshly installed emulators — synchronously for phase 0
// (before any actor starts), and from a clock callback (all actors parked)
// for the rest — making it a safe place to snapshot cross-actor state or
// register the new emulators with a metrics registry.
//
// Phases scheduled past the end of the run (all actors gone) never fire;
// their LinkPlan slots stay nil.
func InstallPhases(v *vclock.Virtual, n *simnet.Network, a, b string, seed int64, phases []Phase, onEnter func(i int, ab, ba *netem.Emulator)) *LinkPlan {
	lp := &LinkPlan{
		AB: make([]*netem.Emulator, len(phases)),
		BA: make([]*netem.Emulator, len(phases)),
	}
	install := func(i int) {
		p := phases[i]
		base := seed + 1000*int64(i+1)
		lp.AB[i] = netem.New(linkConfig(p.AB, p.PartitionAB, base))
		lp.BA[i] = netem.New(linkConfig(p.BA, p.PartitionBA, base+500))
		n.SetLink(a, b, lp.AB[i])
		n.SetLink(b, a, lp.BA[i])
		if onEnter != nil {
			onEnter(i, lp.AB[i], lp.BA[i])
		}
	}
	install(0)
	cum := time.Duration(0)
	for i := 1; i < len(phases); i++ {
		cum += phases[i-1].Duration
		i := i
		v.ScheduleAfter(cum, func() { install(i) })
	}
	return lp
}

// LinkStats is one direction's traffic during one phase.
type LinkStats struct {
	Planned, Dropped, Duplicated, Reordered, Corrupted int
}

// linkLabels is the registry label set for one direction of one phase's
// emulator. Each phase gets its own emulator, so no deltas are needed: the
// final snapshot holds exactly that phase's traffic.
func linkLabels(dir string, phase int) obs.Labels {
	return obs.Labels{"dir": dir, "phase": fmt.Sprintf("%d", phase)}
}

// linkStatsFrom reads one phase-direction's counters out of a registry
// snapshot (all zero when the phase was never entered, i.e. never
// registered).
func linkStatsFrom(snap obs.Snapshot, dir string, phase int) LinkStats {
	p, d, dup, r, c := netem.LinkStatsFromSnapshot(snap, linkLabels(dir, phase))
	return LinkStats{Planned: p, Dropped: d, Duplicated: dup, Reordered: r, Corrupted: c}
}

// SitePhase is one site's activity during one phase. Message and frame
// fields are deltas over the phase; BufPeak/Unacked/OOO are gauges sampled
// at the phase's end.
type SitePhase struct {
	Frames     int
	FirstFrame time.Duration // first frame's offset from phase start; -1 if none ran

	MsgsSent, MsgsRcvd     int
	InputsFresh, InputsDup int
	Waits                  int
	ChecksumDiscarded      int
	Retransmissions        int // ARQ mode only

	BufPeak      int // input-ring window high-water mark so far
	Unacked, OOO int // ARQ buffer gauges at phase end
}

// PhaseReport is everything recorded about one phase of a run.
type PhaseReport struct {
	Name       string
	Entered    bool // false when the run finished before the phase began
	Start, End time.Duration
	AB, BA     LinkStats
	Sites      [2]SitePhase
}

// Report is the outcome of one chaos run.
type Report struct {
	Spec    Scenario
	Lag     int // resolved local lag (frames)
	Elapsed time.Duration
	Phases  []PhaseReport

	Frames        [2]int
	FinalHashes   [2]uint64
	Hashes        [2][]uint64 // each site's state hash after every frame
	Converged     bool
	MismatchFrame int // first diverging frame, -1 when converged

	AllAcked          [2]bool
	Sync              [2]core.Stats
	ARQ               [2]transport.ARQStats
	ChecksumDiscarded [2]int

	// Traces holds each site's frame-event ring when Spec.TraceEvents > 0
	// (nil otherwise). Export with obs.WriteChromeTrace / Tracer.WriteJSONL.
	Traces [2]*obs.Tracer

	// Journals holds each site's input-journey span journal (always on —
	// the stamping hot path is allocation-free).
	Journals [2]*span.Journal
	// Health is the site-0 health-engine outcome when Spec.HealthEvery > 0:
	// every state transition with the frame it was detected at, the final
	// verdict, and the last evaluated window's signals.
	Health       []HealthTransition
	HealthFinal  obs.HealthState
	HealthWindow obs.HealthSignals

	// Flight holds each site's black-box recorder; FlightBundles the
	// incident bundle paths auto-written during the run ("" when that site
	// wrote none).
	Flight        [2]*flight.Recorder
	FlightBundles [2]string
}

// DumpFlight flushes every site's black box into dir as a manual-kind
// bundle (the incident bundle verbatim when one already fired) and returns
// the written paths. The invariant suite's failure path calls this so a red
// chaos run leaves debuggable artifacts even when no trigger fired
// in-session.
func (r *Report) DumpFlight(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	name := strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			return c
		}
		return '-'
	}, r.Spec.Name)
	var out []string
	for site, rec := range r.Flight {
		if rec == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("chaos-%s-site%d.rkfb", name, site))
		f, err := os.Create(path)
		if err != nil {
			return out, err
		}
		err = rec.Dump(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return out, err
		}
		out = append(out, path)
	}
	return out, nil
}

// snapshot is the cumulative cross-site state at one phase boundary: a
// point-in-time read of every series the run registered (sync counters, ARQ
// and checksum bookkeeping, per-phase link emulators).
type snapshot struct {
	at      time.Time
	entered bool
	snap    obs.Snapshot
}

// recorder attributes executed frames to the phase they ran in. Its writers
// are the two site actors (frame) and the phase-entry clock callbacks
// (enter), which vclock.Virtual's baton already runs one at a time. The
// mutex stays so that the recorder's memory safety does not rest on that
// schedule; it costs two uncontended lock operations per frame. The fields
// each site touches are its own, keeping the result independent of which
// site runs first.
type recorder struct {
	mu         sync.Mutex
	phase      int
	phaseStart time.Time
	frames     [][2]int
	firstAt    [][2]time.Duration
}

func newRecorder(phases int) *recorder {
	r := &recorder{
		frames:  make([][2]int, phases),
		firstAt: make([][2]time.Duration, phases),
	}
	for i := range r.firstAt {
		r.firstAt[i] = [2]time.Duration{-1, -1}
	}
	return r
}

func (r *recorder) enter(i int, now time.Time) {
	r.mu.Lock()
	r.phase = i
	r.phaseStart = now
	r.mu.Unlock()
}

func (r *recorder) frame(site int, now time.Time) {
	r.mu.Lock()
	p := r.phase
	if r.firstAt[p][site] < 0 {
		r.firstAt[p][site] = now.Sub(r.phaseStart)
	}
	r.frames[p][site]++
	r.mu.Unlock()
}

// Run executes one chaos scenario and returns its report. Errors surface
// loudly: a partition that outlasts WaitTimeout, a handshake that cannot
// complete, or any session failure aborts the run with the failing site and
// the phase it died in.
func Run(sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	v := vclock.NewVirtual(Epoch)
	n := simnet.New(v)

	raw0, raw1, err := transport.SimPair(n, "site0", "site1")
	if err != nil {
		return nil, err
	}
	// Every run models UDP's end-to-end checksum, so corruption phases
	// behave as loss to the protocol instead of silently diverging the
	// replicas (a single flipped bit in a sync message would otherwise be
	// merged as if it were the peer's real input).
	cks := [2]*transport.ChecksumConn{transport.NewChecksum(raw0), transport.NewChecksum(raw1)}

	skew := NewSkew(v, 1)
	clocks := [2]vclock.Clock{v, skew}
	conns := [2]transport.Conn{cks[0], cks[1]}
	var arqs [2]*transport.ARQConn
	if sc.ARQ {
		for i := range arqs {
			arqs[i] = transport.NewARQ(cks[i], clocks[i], transport.DefaultRTO)
			conns[i] = arqs[i]
		}
	}

	game, err := games.Load(sc.Game)
	if err != nil {
		return nil, err
	}
	// Every stat the report needs flows through one registry: the phase
	// snapshots below are registry snapshots, and the per-phase tables are
	// deltas between them.
	reg := obs.NewRegistry()
	var sites [2]*rig.Site
	for i := range sites {
		// Every chaos session carries the rig's always-on instruments,
		// black box included, as production sessions do.
		sites[i], err = rig.New(rig.Spec{
			Clock:       clocks[i],
			Game:        sc.Game,
			ROM:         game,
			Config:      core.Config{SiteNo: i, NumPlayers: 2, WaitTimeout: sc.WaitTimeout},
			Peers:       []core.Peer{{Site: 1 - i, Conn: conns[i]}},
			ARQ:         arqs[i],
			Checksum:    cks[i],
			Registry:    reg,
			Cost:        harness.DefaultEmulation,
			TraceEvents: sc.TraceEvents,
			FlightDir:   sc.FlightDir,
		})
		if err != nil {
			return nil, err
		}
	}

	// The health SLO engine watches site 0; evaluations run from site 0's
	// frame callback at a fixed frame cadence, so every window boundary —
	// and therefore every verdict flip — lands on a deterministic frame.
	var health *obs.Health
	var healthTrans []HealthTransition
	healthFrame := 0
	if sc.HealthEvery > 0 {
		hcfg := obs.HealthConfig{}
		if sc.Health != nil {
			hcfg = *sc.Health
		}
		health = sites[0].NewHealth(hcfg)
		health.OnTransition = func(from, to obs.HealthState) {
			healthTrans = append(healthTrans, HealthTransition{Frame: healthFrame, From: from, To: to})
		}
	}

	nph := len(sc.Phases)
	snaps := make([]snapshot, nph+1)
	rec := newRecorder(nph)
	take := func() snapshot {
		return snapshot{at: v.Now(), entered: true, snap: reg.Snapshot()}
	}
	onEnter := func(i int, ab, ba *netem.Emulator) {
		// Register before snapshotting so the phase-entry snapshot already
		// carries this phase's (zeroed) link series.
		netem.RegisterLinkMetrics(reg, linkLabels("ab", i), ab)
		netem.RegisterLinkMetrics(reg, linkLabels("ba", i), ba)
		snaps[i] = take()
		rec.enter(i, v.Now())
		skew.SetRate(sc.Phases[i].ClockRate)
	}
	InstallPhases(v, n, "site0", "site1", sc.Seed, sc.Phases, onEnter)

	start := v.Now()
	hashes := [2][]uint64{make([]uint64, 0, sc.Frames), make([]uint64, 0, sc.Frames)}
	err = rig.Run(v, 2, func(site int) error {
		input := func(f int) uint16 {
			if c := sc.Corrupt; c != nil && c.Site == site && c.Frame == f {
				// Flip the byte just before frame f executes, so the
				// corruption lands in exactly f's post-transition hash.
				m := sites[site].Machine
				m.Poke(c.Addr, m.Peek(c.Addr)^c.XOR)
			}
			return harness.PlayerInput(sc.Seed, site, f)
		}
		return sites[site].Play(sc.Frames, input, func(fi core.FrameInfo) {
			hashes[site] = append(hashes[site], fi.Hash)
			rec.frame(site, v.Now())
			if site == 0 && health != nil && fi.Frame > 0 && fi.Frame%sc.HealthEvery == 0 {
				healthFrame = fi.Frame
				health.Evaluate(v.Now())
			}
		})
	})
	snaps[nph] = take()
	elapsed := v.Now().Sub(start)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: in phase %q: %w", sc.Name, sc.Phases[rec.phase].Name, err)
	}

	r := &Report{
		Spec:          sc,
		Lag:           sites[0].Sync().Lag(),
		Elapsed:       elapsed,
		Hashes:        hashes,
		MismatchFrame: -1,
		Converged:     true,
	}
	for i := range sc.Phases {
		pr := PhaseReport{Name: sc.Phases[i].Name, Entered: snaps[i].entered}
		if pr.Entered {
			end := snaps[nph]
			if i+1 < nph && snaps[i+1].entered {
				end = snaps[i+1]
			}
			pr.Start = snaps[i].at.Sub(start)
			pr.End = end.at.Sub(start)
			// Each phase has its own emulators, so their counters need no
			// delta — the final snapshot is exactly that phase's traffic.
			pr.AB = linkStatsFrom(snaps[nph].snap, "ab", i)
			pr.BA = linkStatsFrom(snaps[nph].snap, "ba", i)
			delta := end.snap.Delta(snaps[i].snap)
			for site := 0; site < 2; site++ {
				sl := obs.SiteLabels(site)
				d := core.SyncStatsFromSnapshot(delta, sl)
				arqEnd := transport.ARQStatsFromSnapshot(end.snap, sl)
				arqStart := transport.ARQStatsFromSnapshot(snaps[i].snap, sl)
				pr.Sites[site] = SitePhase{
					Frames:            rec.frames[i][site],
					FirstFrame:        rec.firstAt[i][site],
					MsgsSent:          d.MsgsSent,
					MsgsRcvd:          d.MsgsRcvd,
					InputsFresh:       d.InputsFresh,
					InputsDup:         d.InputsDup,
					Waits:             d.Waits,
					ChecksumDiscarded: transport.ChecksumDiscardedFrom(delta, sl),
					Retransmissions:   arqEnd.Retransmissions - arqStart.Retransmissions,
					BufPeak:           core.SyncStatsFromSnapshot(end.snap, sl).BufPeak,
					Unacked:           arqEnd.Unacked,
					OOO:               arqEnd.OOO,
				}
			}
		}
		r.Phases = append(r.Phases, pr)
	}
	final := snaps[nph].snap
	for site := 0; site < 2; site++ {
		sl := obs.SiteLabels(site)
		s := sites[site]
		r.Frames[site] = s.Machine.FrameCount()
		r.FinalHashes[site] = s.Machine.StateHash()
		r.AllAcked[site] = s.Sync().AllAcked()
		r.Sync[site] = core.SyncStatsFromSnapshot(final, sl)
		r.ARQ[site] = transport.ARQStatsFromSnapshot(final, sl)
		r.ChecksumDiscarded[site] = transport.ChecksumDiscardedFrom(final, sl)
		r.Traces[site] = s.Obs.Tracer
		r.Journals[site] = s.Journal
		r.Flight[site] = s.Flight
		r.FlightBundles[site] = s.Flight.BundlePath()
	}
	if health != nil {
		r.Health = healthTrans
		r.HealthFinal = health.State()
		r.HealthWindow = health.Signals()
	}
	if len(hashes[0]) != len(hashes[1]) {
		r.Converged = false
		r.MismatchFrame = min(len(hashes[0]), len(hashes[1]))
	}
	for f := 0; f < min(len(hashes[0]), len(hashes[1])); f++ {
		if hashes[0][f] != hashes[1][f] {
			r.Converged = false
			r.MismatchFrame = f
			break
		}
	}
	return r, nil
}
