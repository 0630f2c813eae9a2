// Package harness reproduces the paper's testbed (§4) in virtual time: two
// gaming sites running the same ROM under the sync module, connected through
// a Netem-equivalent emulated link, with every frame's begin time read off
// the clock the sites share. One 3600-frame experiment — a wall-clock minute
// on the paper's hardware — completes in well under a second and is
// bit-reproducible for a given seed.
package harness

import (
	"fmt"
	"hash/fnv"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/core"
	"retrolock/internal/metrics"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/span"
	"retrolock/internal/timeserver"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// Defaults matching the paper's setup.
const (
	DefaultFrames    = 3600 // one minute at 60 FPS (§4.1)
	DefaultProcDelay = 10 * time.Millisecond
	DefaultEmulation = 2 * time.Millisecond
	DefaultTimeout   = 60 * time.Second
)

// Config describes one experiment run.
type Config struct {
	// RTT is the emulated round-trip time; each direction gets RTT/2.
	RTT time.Duration
	// Jitter spreads one-way delays uniformly by ±Jitter.
	Jitter time.Duration
	// Loss is the per-direction packet loss probability.
	Loss float64
	// BurstLoss clusters the same loss rate into Gilbert-Elliott bursts.
	BurstLoss bool
	// MeanBurst is the expected burst length in packets (default 4).
	MeanBurst float64
	// Duplicate is the per-direction duplication probability.
	Duplicate float64
	// ProcDelay models the sender-thread scheduling quantum (§4.2,
	// default 10 ms => ~5 ms average submit-to-wire delay).
	ProcDelay time.Duration

	// Frames is the experiment length (default 3600, as in §4.1).
	Frames int
	// Game selects the ROM (default "pong"; §4 notes the game does not
	// affect the results).
	Game string
	// Seed drives the netem PRNGs and the synthetic player inputs.
	Seed int64

	// SendInterval overrides the sync module's send pacing (zero keeps the
	// default).
	SendInterval time.Duration

	// StartOffset delays site 1's start (startup-skew experiments).
	StartOffset time.Duration
	// SkipHandshake bypasses the session-control protocol so StartOffset
	// reaches the sync algorithms unabsorbed.
	SkipHandshake bool
	// NaivePacer replaces Algorithm 4 with the naive EndFrame-only
	// baseline on every site.
	NaivePacer bool

	// AdaptiveLag enables the adaptive-local-lag ablation (§4.2 argues
	// for the fixed 100 ms lag) with bounds [1, 18] and a 15 ms margin.
	AdaptiveLag bool

	// RTTSwing, when positive, alternates the link between RTT and
	// RTT+RTTSwing every swingEvery — the fluctuating network §4.2's
	// adaptive-lag discussion worries about.
	RTTSwing time.Duration

	// Observers adds that many spectator sites (journal extension),
	// connected to both players.
	Observers int

	// Rollback replaces the lockstep sync with the timewarp baseline the
	// paper rejects in §5: zero input lag, repeat-last prediction, full
	// savestate rollback on misprediction. Handshake is skipped (timesync
	// absorbs startup skew) and observers are unsupported in this mode.
	Rollback bool

	// ARQ routes the lockstep traffic through the reliable in-order
	// transport baseline ("TCP-like", §3.1) instead of raw datagrams.
	ARQ bool
	// ARQRto is the baseline's retransmission timeout (default 200 ms).
	ARQRto time.Duration

	// bufFrame overrides the sync module's local lag (zero keeps
	// core.DefaultBufFrame); tests sweep it.
	bufFrame int

	// tap, when set, records every datagram both sites put on (or take
	// off) the emulated WAN into this RKCP recorder — below the ARQ layer,
	// so the capture shows retransmissions and duplicates as they crossed
	// the wire. Both sites' taps share the recorder, so records land in the
	// order the virtual clock ran the sites: bit-identical captures for
	// identical configs, on any host.
	tap *capture.Recorder

	// peerConn, when set, wraps every conn a site is given for a peer, on
	// top of the whole stack (tests use it to hide optional interfaces).
	peerConn func(transport.Conn) transport.Conn
}

func (c Config) withDefaults() Config {
	if c.Frames == 0 {
		c.Frames = DefaultFrames
	}
	if c.Game == "" {
		c.Game = "pong"
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = DefaultProcDelay
	}
	return c
}

// swingEvery is the period of an RTTSwing link's alternation.
const swingEvery = 5 * time.Second

// healthEvery is how often, in frames, site 0's health SLO engine closes and
// grades a window: once per second of frames.
const healthEvery = 60

// SiteResult aggregates one site's measurements.
type SiteResult struct {
	// FrameTimes summarizes consecutive frame-begin differences in
	// milliseconds: Mean is the paper's "average frame time", MAD its
	// "average deviation" (Figure 1).
	FrameTimes metrics.Summary
	// FPS is 1000/mean frame time.
	FPS float64
	// Stats are the sync module's protocol counters.
	Stats core.Stats
	// Rollback carries the timewarp baseline's overhead counters (zero
	// value in lockstep mode).
	Rollback core.RollbackStats
	// FinalHash is the machine state hash after the last frame.
	FinalHash uint64
	// Frames is the number of frames the site executed.
	Frames int
	// LagChanges, AvgLag and FinalLag describe the adaptive-lag ablation
	// (zero values when the lag is fixed).
	LagChanges int
	AvgLag     float64
	FinalLag   int
}

// Result is the outcome of one experiment.
type Result struct {
	// Sites holds the players first, then any observers.
	Sites []SiteResult
	// Sync summarizes the per-frame begin-time differences between the
	// two players, in milliseconds; AbsMean is Figure 2's metric.
	Sync metrics.Summary
	// Converged reports whether every site ended with an identical
	// machine state hash (logical consistency).
	Converged bool
	// Elapsed is the virtual duration of the whole run.
	Elapsed time.Duration
	// Registry holds every series the run collected — the per-site sync
	// counters the SiteResults above were read from, plus frame-time /
	// stall / RTT histograms per site, the cross-site skew histogram
	// (retrolock_skew_ns), and the link emulators' counters. Serve it live
	// with obs.Serve or scrape it with Registry.Snapshot; each lockstep
	// site's flight recorder is registered on it as a /debug/flight/dump
	// producer.
	Registry *obs.Registry
	// Journals holds each lockstep site's input-journey span journal
	// (entries nil in rollback mode) — the source of the cross-site input
	// latency, one-way net latency and live skew histograms.
	Journals []*span.Journal
	// Health is site 0's final SLO verdict and HealthWindow its last
	// evaluated window (zero values in rollback mode).
	Health       obs.HealthState
	HealthWindow obs.HealthSignals
}

// InputLatencyMs summarizes one site's input-journey quantiles in
// milliseconds. Values are histogram bucket upper bounds; 0 means the leg
// recorded no observations.
type InputLatencyMs struct {
	// CrossP50/CrossP90 are the end-to-end cross-site input latency (peer
	// press to local execution) — the number the paper's 140 ms feasibility
	// argument is really about.
	CrossP50, CrossP90 float64
	// LocalP50 is the own-press-to-own-execution latency, ~lag/CFPS by
	// construction.
	LocalP50 float64
	// NetP50 is the one-way wire latency via the clock-offset estimate.
	NetP50 float64
	// SkewP90 is the per-frame cross-site execution skew.
	SkewP90 float64
}

// InputLatency reads a site's journey quantiles out of its journal.
func (r *Result) InputLatency(site int) InputLatencyMs {
	var out InputLatencyMs
	if site < 0 || site >= len(r.Journals) || r.Journals[site] == nil {
		return out
	}
	j := r.Journals[site]
	q := func(h *obs.Histogram, p float64) float64 {
		if h == nil || h.Count() == 0 {
			return 0
		}
		return float64(h.Quantile(p)) / 1e6
	}
	out.CrossP50, out.CrossP90 = q(j.Cross, 0.5), q(j.Cross, 0.9)
	out.LocalP50 = q(j.Local, 0.5)
	out.NetP50 = q(j.Net, 0.5)
	out.SkewP90 = q(j.Skew, 0.9)
	return out
}

// PlayerInput synthesizes a deterministic pseudo-random pad byte for a
// player at a frame. Button mashing at full frame rate is a worst case for
// input traffic; §4 notes the game (and hence the inputs) does not affect
// the timing results. Exported so other virtual-time drivers (the chaos
// harness) feed the exact same input streams.
func PlayerInput(seed int64, site, frame int) uint16 {
	h := fnv.New64a()
	var b [24]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
		b[8+i] = byte(site >> (8 * i))
		b[16+i] = byte(frame >> (8 * i))
	}
	h.Write(b[:])
	return uint16(h.Sum64()) & 0x00FF << (8 * (site & 1))
}

// Expect is the network-free oracle of a lockstep run (logical consistency,
// §3.1): the state hash after every frame of game when both players feed
// PlayerInput(seed, ·) at local lag lag. Frame f executes both players'
// inputs from frame f−lag and the first lag frames carry none, so a run's
// hashes are a function of the input script alone, whatever its network
// did. It panics if game does not load or boot.
func Expect(game string, seed int64, frames, lag int) []uint64 {
	g, err := games.Load(game)
	if err != nil {
		panic(err)
	}
	c, err := g.Boot()
	if err != nil {
		panic(err)
	}
	out := make([]uint64, frames)
	for f := range out {
		var in uint16
		if f >= lag {
			in = PlayerInput(seed, 0, f-lag) | PlayerInput(seed, 1, f-lag)
		}
		c.StepFrame(in)
		out[f] = c.StateHash()
	}
	return out
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Rollback && cfg.Observers > 0 {
		return nil, fmt.Errorf("harness: the rollback baseline does not support observers")
	}
	game, err := games.Load(cfg.Game)
	if err != nil {
		return nil, err
	}
	start0 := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	v := vclock.NewVirtual(start0)
	net := simnet.New(v)

	// The emulated WAN between the two players.
	linkCfg := func(seed int64) netem.Config {
		return netem.Config{
			Delay:     cfg.RTT / 2,
			Jitter:    cfg.Jitter,
			ProcDelay: cfg.ProcDelay,
			Loss:      cfg.Loss,
			BurstLoss: cfg.BurstLoss,
			MeanBurst: cfg.MeanBurst,
			Duplicate: cfg.Duplicate,
			Seed:      seed,
		}
	}
	reg := obs.NewRegistry()
	fwdEm, revEm := netem.Install(net, "site0", "site1", linkCfg(cfg.Seed), linkCfg(cfg.Seed+1))
	netem.RegisterLinkMetrics(reg, obs.Labels{"dir": "fwd"}, fwdEm)
	netem.RegisterLinkMetrics(reg, obs.Labels{"dir": "rev"}, revEm)
	skewHist := reg.NewHistogram(core.MetricSkewNs, nil, "per-frame cross-site begin-time skew")

	if cfg.RTTSwing > 0 {
		// Each swing reshapes the installed emulators in place, so the
		// dir=fwd|rev series keep counting for the whole run.
		var schedule func(at time.Duration, high bool)
		schedule = func(at time.Duration, high bool) {
			v.ScheduleAfter(at, func() {
				fwd := linkCfg(cfg.Seed + 100)
				if high {
					fwd.Delay = (cfg.RTT + cfg.RTTSwing) / 2
				}
				rev := fwd
				rev.Seed++
				fwdEm.Reshape(fwd)
				revEm.Reshape(rev)
				schedule(swingEvery, !high)
			})
		}
		schedule(swingEvery, true)
	}

	conn0, conn1, err := transport.SimPair(net, "site0", "site1")
	if err != nil {
		return nil, err
	}
	conns := []transport.Conn{conn0, conn1}
	var arqs [2]*transport.ARQConn
	for i := range conns {
		if cfg.tap != nil {
			// Tap below ARQ: the capture is the wire's view, not the session's.
			conns[i] = transport.NewTap(conns[i], v, i, cfg.tap)
		}
		if cfg.ARQ {
			arqs[i] = transport.NewARQ(conns[i], v, cfg.ARQRto)
			conns[i] = arqs[i]
		}
	}

	totalSites := 2 + cfg.Observers

	// Each player's peers: the other player, then every observer; each
	// observer connects to both players.
	peers := make([][]core.Peer, totalSites)
	for p := range conns {
		peers[p] = []core.Peer{{Site: 1 - p, Conn: conns[p]}}
	}
	for o := 2; o < totalSites; o++ {
		for p := 0; p < 2; p++ {
			a, b, err := transport.SimPair(net,
				fmt.Sprintf("obs%d->p%d", o-2, p), fmt.Sprintf("p%d->obs%d", p, o-2))
			if err != nil {
				return nil, err
			}
			peers[o] = append(peers[o], core.Peer{Site: p, Conn: a})
			peers[p] = append(peers[p], core.Peer{Site: o, Conn: b})
		}
	}

	if cfg.peerConn != nil {
		for _, ps := range peers {
			for i := range ps {
				ps[i].Conn = cfg.peerConn(ps[i].Conn)
			}
		}
	}

	sites := make([]*rig.Site, totalSites)
	journals := make([]*span.Journal, totalSites)
	begins := make([][]timeserver.Sample, totalSites)
	for site := range sites {
		sp := rig.Spec{
			Clock: v,
			Game:  cfg.Game,
			ROM:   game,
			Config: core.Config{
				SiteNo:       site,
				NumPlayers:   2,
				BufFrame:     cfg.bufFrame,
				SendInterval: cfg.SendInterval,
				WaitTimeout:  DefaultTimeout,
			},
			Peers:    peers[site],
			Registry: reg,
			Cost:     DefaultEmulation,
			Rollback: cfg.Rollback,
		}
		if site < 2 {
			sp.ARQ = arqs[site]
		}
		if cfg.NaivePacer {
			sp.Options = append(sp.Options, core.WithPacer(core.NewNaiveTimer(v)))
		}
		if cfg.AdaptiveLag {
			sp.Options = append(sp.Options, core.WithAdaptiveLag(core.AdaptiveLag{
				Min: 1, Max: 18, Margin: 15 * time.Millisecond, Every: 60,
			}))
		}
		if sites[site], err = rig.New(sp); err != nil {
			return nil, err
		}
		journals[site] = sites[site].Journal
	}

	// The site-0 health SLO engine grades the feasibility signals — median
	// RTT vs the 140 ms cliff, skew quantile, mean frame time, ARQ
	// retransmit rate — one window every healthEvery frames.
	var health *obs.Health
	if !cfg.Rollback {
		health = sites[0].NewHealth(obs.HealthConfig{})
	}

	start := v.Now()
	var elapsed time.Duration
	running := totalSites
	err = rig.Run(v, totalSites, func(site int) error {
		s := sites[site]
		defer func() {
			if running--; running == 0 {
				elapsed = v.Now().Sub(start)
			}
		}()
		if site == 1 && cfg.StartOffset > 0 {
			v.Sleep(cfg.StartOffset)
		}
		localInput := func(f int) uint16 {
			// Frame begin (§4.1). Real sites share no clock, so the paper
			// has a LAN time server stamp each one's report. Every site
			// here runs on v, where that server would stamp this instant
			// a constant 50 µs later, which every frame time and every
			// skew cancels. timeserverd is that server for real runs.
			begins[site] = append(begins[site], timeserver.Sample{Frame: f, At: v.Now()})
			if site >= 2 {
				return 0
			}
			return PlayerInput(cfg.Seed, site, f)
		}
		if s.Rollback != nil {
			if err := s.Rollback.RunFrames(cfg.Frames, localInput, nil); err != nil {
				return err
			}
			return s.Rollback.Settle(5 * time.Second)
		}
		if !cfg.SkipHandshake {
			if err := s.Handshake(10 * time.Second); err != nil {
				return err
			}
		}
		var onFrame func(core.FrameInfo)
		if site == 0 && health != nil {
			onFrame = func(fi core.FrameInfo) {
				if fi.Frame > 0 && fi.Frame%healthEvery == 0 {
					health.Evaluate(v.Now())
				}
			}
		}
		err := s.RunFrames(cfg.Frames, localInput, onFrame)
		s.Drain(5 * time.Second)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	res := &Result{Elapsed: elapsed, Converged: true, Registry: reg, Journals: journals}
	if health != nil {
		res.Health = health.State()
		res.HealthWindow = health.Signals()
	}
	// Every protocol counter below is read back out of the registry — the
	// same series a live scrape of obs.Serve would see — rather than from
	// the session structs directly.
	final := reg.Snapshot()
	for site, s := range sites {
		var frameTimes metrics.Series
		for _, d := range timeserver.FrameTimes(begins[site]) {
			frameTimes.AddDuration(d)
		}
		sl := obs.SiteLabels(site)
		sr := SiteResult{
			FrameTimes: frameTimes.Summarize(),
			FinalHash:  s.Machine.StateHash(),
			Frames:     s.Machine.FrameCount(),
			Stats:      core.SyncStatsFromSnapshot(final, sl),
		}
		if s.Rollback != nil {
			sr.Rollback = core.RollbackStatsFromSnapshot(final, sl)
		} else {
			sr.LagChanges, sr.AvgLag = s.LagStats()
			sr.FinalLag = s.Sync().Lag()
		}
		sr.FPS = metrics.FPS(sr.FrameTimes.Mean)
		res.Sites = append(res.Sites, sr)
		if sr.FinalHash != res.Sites[0].FinalHash {
			res.Converged = false
		}
	}
	var sync metrics.Series
	for _, d := range timeserver.SyncDiffs(begins[0], begins[1]) {
		sync.AddDuration(d)
		if d < 0 {
			d = -d
		}
		skewHist.Observe(int64(d))
	}
	res.Sync = sync.Summarize()
	return res, nil
}

// PaperCalibration returns the configuration that best reproduces the
// paper's absolute numbers (Figures 1 and 2).
//
// The only knob that differs from the clean defaults is ProcDelay = 40 ms
// (uniform [0, 40), 20 ms average per packet). The paper's testbed pays,
// per §4.2, ~10 ms average outbound buffering + ~5 ms sender-thread quantum,
// and symmetric costs on the receive path, plus Windows timer granularity —
// our virtual testbed has none of that noise, so it is reintroduced here as
// a per-packet processing delay. With it the observed behaviour matches the
// paper: average frame-time deviation ≈ 0 up to RTT 90 ms, < 5 ms through
// RTT 140 ms, a sharp jump just past it (we measure the knee at 150-160 ms
// vs the paper's 140 ms), cross-site difference < 11 ms below the knee, and
// ~50 FPS by RTT 200 ms.
func PaperCalibration() Config {
	return Config{ProcDelay: 40 * time.Millisecond}
}

// MultiRun repeats a configuration across n seeds (cfg.Seed, cfg.Seed+1000,
// ...) and reports the spread of the headline metrics — the error bars the
// paper's single-run figures lack.
type MultiRun struct {
	FrameTime metrics.Summary // per-seed mean frame times (ms), site 0
	Deviation metrics.Summary // per-seed frame-time MADs (ms), site 0
	Sync      metrics.Summary // per-seed cross-site abs-mean (ms)
	Converged bool            // true only if every run converged
}

// RunSeeds executes cfg under n different seeds.
func RunSeeds(cfg Config, n int) (*MultiRun, error) {
	if n < 1 {
		n = 1
	}
	out := &MultiRun{Converged: true}
	var ft, dev, sync metrics.Series
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1000
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", c.Seed, err)
		}
		ft.Add(res.Sites[0].FrameTimes.Mean)
		dev.Add(res.Sites[0].FrameTimes.MAD)
		sync.Add(res.Sync.AbsMean)
		if !res.Converged {
			out.Converged = false
		}
	}
	out.FrameTime = ft.Summarize()
	out.Deviation = dev.Summarize()
	out.Sync = sync.Summarize()
	return out, nil
}

// SweepPoint is one RTT of a parameter sweep.
type SweepPoint struct {
	RTT    time.Duration
	Result *Result
}

// PaperRTTs returns the paper's sweep: 0-200 ms in 10 ms steps, then
// 250-400 ms in 50 ms steps (§4.1).
func PaperRTTs() []time.Duration {
	var out []time.Duration
	for ms := 0; ms <= 200; ms += 10 {
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	for ms := 250; ms <= 400; ms += 50 {
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	return out
}

// SweepRTT runs base at every RTT. onPoint, when non-nil, observes each
// completed point (for progress output).
func SweepRTT(base Config, rtts []time.Duration, onPoint func(SweepPoint)) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(rtts))
	for _, rtt := range rtts {
		cfg := base
		cfg.RTT = rtt
		res, err := Run(cfg)
		if err != nil {
			return out, fmt.Errorf("harness: rtt %v: %w", rtt, err)
		}
		p := SweepPoint{RTT: rtt, Result: res}
		out = append(out, p)
		if onPoint != nil {
			onPoint(p)
		}
	}
	return out, nil
}

// SweepLoss runs base at every loss rate (journal extension experiment).
func SweepLoss(base Config, losses []float64, onPoint func(float64, *Result)) (map[float64]*Result, error) {
	out := make(map[float64]*Result, len(losses))
	for _, loss := range losses {
		cfg := base
		cfg.Loss = loss
		res, err := Run(cfg)
		if err != nil {
			return out, fmt.Errorf("harness: loss %.3f: %w", loss, err)
		}
		out[loss] = res
		if onPoint != nil {
			onPoint(loss, res)
		}
	}
	return out, nil
}
