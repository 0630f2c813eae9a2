package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
	"retrolock/internal/transport"
)

// lockstep_clean and lockstep_lossy: sequential two-site harness.Run
// sessions in virtual time, ROM rotating over every shipped game, session i
// seeded seed+i. The sessions run in a re-executed child so CPU and peak RSS
// belong to the workload alone.

// Session counts at refSeconds, from ISSUE 14.
const (
	cleanSessionsRef = 160
	lossySessionsRef = 48
	lockstepFrames   = harness.DefaultFrames // 3600: the paper's one-minute run
)

func lockstepSessions(workload string, seconds int) int {
	ref := cleanSessionsRef
	if workload == "lockstep_lossy" {
		ref = lossySessionsRef
	}
	n := ref * seconds / refSeconds
	if n < 2 {
		n = 2
	}
	return n
}

// lockstepConfig is session i of a lockstep workload.
func lockstepConfig(workload string, seed int64, i int) harness.Config {
	names := games.Names()
	cfg := harness.PaperCalibration()
	cfg.Frames = lockstepFrames
	cfg.Seed = seed + int64(i)
	cfg.Game = names[((i%len(names))+len(names))%len(names)]
	if workload == "lockstep_lossy" {
		cfg.ARQ = true
		cfg.RTT = 160 * time.Millisecond
		cfg.Jitter = 10 * time.Millisecond
		cfg.Loss = 0.05
		cfg.BurstLoss = true
		cfg.Duplicate = 0.01
	} else {
		cfg.RTT = 100 * time.Millisecond // under the paper's 140 ms cliff
	}
	return cfg
}

// mergedInput is the input word both replicas execute at frame f: each
// player's pad delayed by the local lag; the first lag frames of a session
// carry no input (paper section 3). It is derived here, not read back from
// the session, so the replay below is an independent check of what the sync
// module delivered.
func mergedInput(seed int64, lag, f int) uint16 {
	if f < lag {
		return 0
	}
	return harness.PlayerInput(seed, 0, f-lag) | harness.PlayerInput(seed, 1, f-lag)
}

// replayHash runs the merged input stream on one machine.
func replayHash(game string, seed int64, lag, frames int) (uint64, error) {
	rom, err := games.Load(game)
	if err != nil {
		return 0, err
	}
	console, err := rom.Boot()
	if err != nil {
		return 0, err
	}
	for f := 0; f < frames; f++ {
		console.StepFrame(mergedInput(seed, lag, f))
	}
	return console.StateHash(), nil
}

// lockstepSpec tells a child which sessions of the workload are its share.
type lockstepSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	First    int    `json:"first"`
	Sessions int    `json:"sessions"`
}

// lockstepCounts are protocol and link counters summed over the measured
// sessions (site 0 and site 1 together unless noted).
type lockstepCounts struct {
	Frames      int64   `json:"frames"` // site 0
	MsgsSent    int64   `json:"msgs_sent"`
	BytesSent   int64   `json:"bytes_sent"`
	InputsFresh int64   `json:"inputs_fresh"`
	InputsDup   int64   `json:"inputs_dup"`
	Waits0      int64   `json:"waits0"`       // site 0
	WaitNs0     int64   `json:"wait_ns0"`     // site 0, virtual
	Planned     int64   `json:"planned"`      // netem, both directions
	Dropped     int64   `json:"dropped"`      //
	Duplicated  int64   `json:"duplicated"`   //
	Retransmits int64   `json:"retransmits"`  // ARQ, both sites
	SumFrameMs  float64 `json:"sum_frame_ms"` // Σ per-session mean virtual frame time
	SumSkewMs   float64 `json:"sum_skew_ms"`  // Σ per-session |skew| mean
	Sessions    int64   `json:"sessions"`
}

func (c *lockstepCounts) add(cfg harness.Config, res *harness.Result) {
	c.Sessions++
	c.Frames += int64(res.Sites[0].Frames)
	for _, s := range res.Sites[:2] {
		c.MsgsSent += int64(s.Stats.MsgsSent)
		c.BytesSent += s.Stats.BytesSent
		c.InputsFresh += int64(s.Stats.InputsFresh)
		c.InputsDup += int64(s.Stats.InputsDup)
	}
	c.Waits0 += int64(res.Sites[0].Stats.Waits)
	c.WaitNs0 += int64(res.Sites[0].Stats.WaitTime)
	snap := res.Registry.Snapshot()
	for _, dir := range []string{"fwd", "rev"} {
		p, d, dup, _, _ := netem.LinkStatsFromSnapshot(snap, obs.Labels{"dir": dir})
		c.Planned += int64(p)
		c.Dropped += int64(d)
		c.Duplicated += int64(dup)
	}
	if cfg.ARQ {
		for site := 0; site < 2; site++ {
			c.Retransmits += int64(transport.ARQStatsFromSnapshot(snap, obs.SiteLabels(site)).Retransmissions)
		}
	}
	c.SumFrameMs += res.Sites[0].FrameTimes.Mean
	c.SumSkewMs += res.Sync.AbsMean
}

// merge adds another child's counts.
func (c *lockstepCounts) merge(o lockstepCounts) {
	c.Frames += o.Frames
	c.MsgsSent += o.MsgsSent
	c.BytesSent += o.BytesSent
	c.InputsFresh += o.InputsFresh
	c.InputsDup += o.InputsDup
	c.Waits0 += o.Waits0
	c.WaitNs0 += o.WaitNs0
	c.Planned += o.Planned
	c.Dropped += o.Dropped
	c.Duplicated += o.Duplicated
	c.Retransmits += o.Retransmits
	c.SumFrameMs += o.SumFrameMs
	c.SumSkewMs += o.SumSkewMs
	c.Sessions += o.Sessions
}

type lockstepResult struct {
	WallNs  []int64        `json:"wall_ns"` // per session, inside harness.Run
	CPUNs   int64          `json:"cpu_ns"`  // child user+system over the measured loop
	PeakMB  float64        `json:"peak_mb"`
	Counts  lockstepCounts `json:"counts"`
	Failed  []string       `json:"failed"` // one line per failed session
	Elapsed float64        `json:"elapsed_s"`
}

// sessionCheck holds what the post-window verification needs from one
// session; the Result itself (registry, journals, recorders) is dropped as
// soon as the session ends so peak RSS measures one session, not the lot.
type sessionCheck struct {
	cfg       harness.Config
	hash      [2]uint64
	frames    int
	lag       int
	fps       float64
	converged bool
	err       error
}

func (s sessionCheck) verify(workload string) string {
	tag := fmt.Sprintf("session seed %d (%s)", s.cfg.Seed, s.cfg.Game)
	switch {
	case s.err != nil:
		return fmt.Sprintf("%s: %v", tag, s.err)
	case !s.converged || s.hash[0] != s.hash[1]:
		return fmt.Sprintf("%s: replicas did not converge (%016x vs %016x)", tag, s.hash[0], s.hash[1])
	case s.frames != s.cfg.Frames:
		return fmt.Sprintf("%s: executed %d of %d frames", tag, s.frames, s.cfg.Frames)
	case workload == "lockstep_clean" && math.Abs(s.fps-60) >= 0.05:
		// One late packet in 3600 frames costs a session ~0.03 FPS; the
		// workload as a whole must still hold 60.00 (checked by the parent).
		return fmt.Sprintf("%s: %.3f FPS, want 60.0 below the RTT cliff", tag, s.fps)
	}
	want, err := replayHash(s.cfg.Game, s.cfg.Seed, s.lag, s.frames)
	if err != nil {
		return fmt.Sprintf("%s: replay: %v", tag, err)
	}
	if want != s.hash[0] {
		return fmt.Sprintf("%s: final hash %016x differs from the single-machine replay %016x", tag, s.hash[0], want)
	}
	return ""
}

func runSession(cfg harness.Config) (sessionCheck, *harness.Result, time.Duration) {
	t0 := time.Now()
	res, err := harness.Run(cfg)
	wall := time.Since(t0)
	chk := sessionCheck{cfg: cfg, err: err}
	if err == nil {
		chk.hash = [2]uint64{res.Sites[0].FinalHash, res.Sites[1].FinalHash}
		chk.frames = res.Sites[0].Frames
		chk.lag = res.Sites[0].FinalLag
		chk.fps = res.Sites[0].FPS
		chk.converged = res.Converged
	}
	return chk, res, wall
}

// verifyAll replays every session on GOMAXPROCS workers, outside the
// measured window.
func verifyAll(workload string, checks []sessionCheck) []string {
	msgs := make([]string, len(checks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(checks); i = int(next.Add(1)) - 1 {
				msgs[i] = checks[i].verify(workload)
			}
		}()
	}
	wg.Wait()
	var failed []string
	for _, m := range msgs {
		if m != "" {
			failed = append(failed, m)
		}
	}
	return failed
}

// lockstepSetup is what a lockstep child does before its first measured
// session: assemble every ROM and run one full warm-up session so the heap,
// the simnet pools and the scheduler are at steady state.
func lockstepSetup(spec lockstepSpec) error {
	for _, name := range games.Names() {
		if _, err := games.Load(name); err != nil {
			return err
		}
	}
	chk, _, _ := runSession(lockstepConfig(spec.Workload, spec.Seed, -1))
	return chk.err
}

func lockstepChild(cio *childIO, spec lockstepSpec) error {
	cio.exitWhenOrphaned()
	t0 := time.Now()
	if err := lockstepSetup(spec); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := cio.emit(map[string]string{"ev": "ready"}); err != nil {
		return err
	}

	out := lockstepResult{WallNs: make([]int64, 0, spec.Sessions)}
	checks := make([]sessionCheck, 0, spec.Sessions)
	cpu0 := selfCPU()
	for i := spec.First; i < spec.First+spec.Sessions; i++ {
		cfg := lockstepConfig(spec.Workload, spec.Seed, i)
		chk, res, wall := runSession(cfg)
		checks = append(checks, chk)
		out.WallNs = append(out.WallNs, int64(wall))
		if res != nil {
			out.Counts.add(cfg, res)
		}
	}
	out.CPUNs = int64(selfCPU() - cpu0)
	out.PeakMB = peakRSSMB()
	out.Failed = verifyAll(spec.Workload, checks)
	out.Elapsed = time.Since(t0).Seconds()
	return cio.finish(out)
}

// runParts is how many fresh children share a run's ops. Each sets the
// workload up and measures its share; setup_s, cpu_us_per_op and peak_rss_mb
// are the median over the children, which keeps one child's unlucky thread
// placement or one backlog spike out of the run's reading. Timing samples are
// pooled.
const runParts = 3

// split returns how many of n ops part k of parts takes, and where it starts.
func split(n, parts, k int) (first, count int) {
	return k * n / parts, (k+1)*n/parts - k*n/parts
}

// runLockstep drives one lockstep workload from the parent.
func runLockstep(workload string, seed int64, seconds int) (*runResult, error) {
	sessions := lockstepSessions(workload, seconds)
	r := &runResult{Workload: workload, Seed: seed, Seconds: seconds}
	r.Ops = map[string]int64{"sessions": int64(sessions), "frames_per_session": lockstepFrames, "children": runParts}

	// Games differ threefold in emulation cost, so quantiles over the raw
	// mix would land on whichever game straddles the rank. Take them per
	// game (session i runs game i mod G) and average over the mix.
	nGames := len(games.Names())
	perGame := make([][]float64, nGames) // us per simulated frame, per session
	var (
		setups, cpus, peaks []float64
		counts              lockstepCounts
		wall                int64
		elapsed             float64
	)
	for k := 0; k < runParts; k++ {
		spec := lockstepSpec{Workload: workload, Seed: seed}
		spec.First, spec.Sessions = split(sessions, runParts, k)
		var res lockstepResult
		setup, err := runChild("lockstep", spec, &res)
		if err != nil {
			return nil, err
		}
		for i, w := range res.WallNs {
			g := (spec.First + i) % nGames
			perGame[g] = append(perGame[g], float64(w)/1e3/lockstepFrames)
			wall += w
		}
		setups = append(setups, setup)
		cpus = append(cpus, float64(res.CPUNs)/1e3/float64(res.Counts.Frames))
		peaks = append(peaks, res.PeakMB)
		counts.merge(res.Counts)
		elapsed += res.Elapsed
		r.Attempted += len(res.WallNs)
		r.Failed += len(res.Failed)
		r.Failures = append(r.Failures, res.Failed...)
	}
	var p10, p50, p90 float64
	for _, v := range perGame {
		sorted := sortedCopy(v)
		p10 += quantile(sorted, 0.1) / float64(nGames)
		p50 += median(sorted) / float64(nGames)
		p90 += quantile(sorted, 0.9) / float64(nGames)
	}
	frames := float64(counts.Frames)
	r.Samples = r.Attempted
	r.Metrics = map[string]float64{
		"setup_s":        median(setups),
		"op_time_p10_us": p10,
		"cpu_us_per_op":  median(cpus),
		"peak_rss_mb":    median(peaks),
	}
	r.Diagnostics = map[string]float64{
		"ops_per_s":      frames / (float64(wall) / 1e9),
		"op_time_p50_us": p50,
		"op_time_p90_us": p90,
	}
	n := float64(counts.Sessions)
	if fps := 1000 / (counts.SumFrameMs / n); workload == "lockstep_clean" && math.Abs(fps-60) >= 0.005 {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("workload ran at %.3f FPS, want 60.00 below the RTT cliff", fps))
	}
	r.Incorrect = r.Failed // a session that errors cannot be verified either
	r.Notes = []string{
		fmt.Sprintf("virtual time, %d sessions x %d frames in %d children; Figure 1 frame time %.4f ms, Figure 2 skew %.4f ms (means over sessions, deterministic per seed)",
			sessions, lockstepFrames, runParts, counts.SumFrameMs/n, counts.SumSkewMs/n),
		fmt.Sprintf("site-0 waits %.1f per 1000 frames; children's wall %.1f s", 1000*float64(counts.Waits0)/frames, elapsed),
	}
	return r, nil
}

// runChild spawns one child that announces "ready" when set up and then
// sends one result, and returns its set-up time: from just before the spawn
// to the ready line.
func runChild(mode string, spec, result any) (setupS float64, err error) {
	c, err := spawnChild(mode, spec)
	if err != nil {
		return 0, err
	}
	defer c.kill()
	var ev map[string]string
	if err := c.recv(&ev); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", mode, err)
	}
	setupS = time.Since(c.spawned).Seconds()
	if err := c.recv(result); err != nil {
		return 0, err
	}
	return setupS, c.wait()
}
