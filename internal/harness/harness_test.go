package harness

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
)

// run runs cfg and, unless the local lag adapts during the run, checks
// every site's final state against the oracle.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cfg.AdaptiveLag {
		checkOracle(t, cfg, res)
	}
	return res
}

// checkOracle asserts that every site of res ended in the state Expect
// computes from cfg's input script alone (lag 0 for rollback, whose
// reconciled inputs carry no local lag).
func checkOracle(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	cfg = cfg.withDefaults()
	lag := cfg.bufFrame
	if lag == 0 {
		lag = core.DefaultBufFrame
	}
	if cfg.Rollback {
		lag = 0
	}
	want := Expect(cfg.Game, cfg.Seed, cfg.Frames, lag)[cfg.Frames-1]
	for site, s := range res.Sites {
		if s.FinalHash != want {
			t.Errorf("%s seed %d site %d: final hash %#x, oracle %#x", cfg.Game, cfg.Seed, site, s.FinalHash, want)
		}
	}
}

func TestLowLatencyRunsAtSixtyFPS(t *testing.T) {
	res := run(t, Config{RTT: 40 * time.Millisecond, Frames: 600, Seed: 1})
	if !res.Converged {
		t.Fatal("replicas diverged")
	}
	for site, sr := range res.Sites {
		if sr.FPS < 58 || sr.FPS > 62 {
			t.Errorf("site %d FPS = %.1f, want ~60", site, sr.FPS)
		}
		if sr.FrameTimes.MAD > 2 {
			t.Errorf("site %d frame-time MAD = %.2fms, want ~0 at RTT 40ms", site, sr.FrameTimes.MAD)
		}
		if sr.Frames != 600 {
			t.Errorf("site %d executed %d frames, want 600", site, sr.Frames)
		}
		// The input ring retires delivered-and-acked frames, so even a
		// full run keeps only a small sliding window buffered.
		if sr.Stats.BufPeak <= 0 || sr.Stats.BufPeak >= 64 {
			t.Errorf("site %d input-window peak = %d frames, want within (0, 64)", site, sr.Stats.BufPeak)
		}
	}
	if res.Sync.AbsMean > 10 {
		t.Errorf("cross-site sync = %.2fms, want < 10ms at RTT 40ms", res.Sync.AbsMean)
	}
}

func TestHighLatencySlowsTheGame(t *testing.T) {
	low := run(t, Config{RTT: 40 * time.Millisecond, Frames: 400, Seed: 2})
	high := run(t, Config{RTT: 300 * time.Millisecond, Frames: 400, Seed: 2})
	if !high.Converged {
		t.Fatal("high-latency run diverged")
	}
	if high.Sites[0].FrameTimes.Mean <= low.Sites[0].FrameTimes.Mean+5 {
		t.Errorf("RTT 300ms frame time %.2fms vs RTT 40ms %.2fms; game did not slow down",
			high.Sites[0].FrameTimes.Mean, low.Sites[0].FrameTimes.Mean)
	}
	if high.Sites[0].FPS >= 55 {
		t.Errorf("FPS at RTT 300ms = %.1f, want well below 60", high.Sites[0].FPS)
	}
}

func TestLossyLinkStillConverges(t *testing.T) {
	res := run(t, Config{RTT: 60 * time.Millisecond, Loss: 0.10, Frames: 500, Seed: 3})
	if !res.Converged {
		t.Fatal("replicas diverged under 10% loss")
	}
	if res.Sites[0].Stats.InputsDup == 0 {
		t.Error("no retransmissions observed despite loss")
	}
}

func TestObserversConverge(t *testing.T) {
	cfg := Config{RTT: 50 * time.Millisecond, Frames: 300, Seed: 4, Observers: 2}
	res := run(t, cfg)
	if len(res.Sites) != 4 {
		t.Fatalf("sites = %d, want 4 (2 players + 2 observers)", len(res.Sites))
	}
	if !res.Converged {
		t.Fatal("observer replicas diverged")
	}
}

// TestObserversRunIsDeterministic covers sites with more than one peer: the
// handshake and the hash broadcast used to walk the peers map, whose order
// Go re-randomizes on every pass, so the observers' counters and histograms
// changed from one identical run to the next.
func TestObserversRunIsDeterministic(t *testing.T) {
	cfg := Config{RTT: 50 * time.Millisecond, Observers: 2, Frames: 300, Seed: 4}
	first := run(t, cfg).Registry.Snapshot()
	for i := 0; i < 5; i++ {
		if again := run(t, cfg).Registry.Snapshot(); !reflect.DeepEqual(first, again) {
			t.Fatalf("rerun %d: registry differs from the first run", i+1)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := run(t, Config{RTT: 120 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.02, Frames: 300, Seed: 42})
	b := run(t, Config{RTT: 120 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.02, Frames: 300, Seed: 42})
	if a.Sites[0].FrameTimes.Mean != b.Sites[0].FrameTimes.Mean ||
		a.Sync.AbsMean != b.Sync.AbsMean ||
		a.Sites[0].FinalHash != b.Sites[0].FinalHash {
		t.Fatalf("identical seeds produced different results:\n%+v\n%+v", a.Sites[0], b.Sites[0])
	}
	c := run(t, Config{RTT: 120 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.02, Frames: 300, Seed: 43})
	if a.Sync.AbsMean == c.Sync.AbsMean && a.Sites[0].FrameTimes.MAD == c.Sites[0].FrameTimes.MAD {
		t.Error("different seeds produced identical timing statistics (suspicious)")
	}
}

func TestNaivePacerPenalizesEarlierSite(t *testing.T) {
	base := Config{
		RTT:           80 * time.Millisecond,
		Frames:        500,
		Seed:          5,
		StartOffset:   120 * time.Millisecond,
		SkipHandshake: true,
	}
	naive := base
	naive.NaivePacer = true
	withA4 := run(t, base)
	withNaive := run(t, naive)
	// Site 0 (the earlier site) suffers with the naive pacer; Algorithm 4
	// shifts the adjustment onto the slave and stabilizes it.
	if withA4.Sites[0].FrameTimes.MAD > withNaive.Sites[0].FrameTimes.MAD {
		t.Errorf("earlier site MAD: algorithm4=%.2fms naive=%.2fms; master/slave pacing should be smoother",
			withA4.Sites[0].FrameTimes.MAD, withNaive.Sites[0].FrameTimes.MAD)
	}
	if !withNaive.Converged || !withA4.Converged {
		t.Error("ablation runs diverged")
	}
}

func TestARQBaselineConverges(t *testing.T) {
	res := run(t, Config{RTT: 60 * time.Millisecond, Frames: 300, Seed: 6, ARQ: true})
	if !res.Converged {
		t.Fatal("ARQ baseline diverged")
	}
}

func TestARQSuffersUnderLoss(t *testing.T) {
	udp := run(t, Config{RTT: 60 * time.Millisecond, Loss: 0.05, Frames: 400, Seed: 7})
	arq := run(t, Config{RTT: 60 * time.Millisecond, Loss: 0.05, Frames: 400, Seed: 7, ARQ: true})
	if !arq.Converged {
		t.Fatal("ARQ lossy run diverged")
	}
	// Head-of-line blocking: the reliable transport's frame-time tail is
	// worse than the UDP lockstep's under the same loss.
	if arq.Sites[0].FrameTimes.Max < udp.Sites[0].FrameTimes.Max {
		t.Logf("note: ARQ max %.2fms vs UDP max %.2fms", arq.Sites[0].FrameTimes.Max, udp.Sites[0].FrameTimes.Max)
	}
	if arq.Sites[0].FrameTimes.MAD+0.01 < udp.Sites[0].FrameTimes.MAD {
		t.Errorf("ARQ under loss smoother than UDP lockstep (MAD %.3f vs %.3f); HoL blocking missing",
			arq.Sites[0].FrameTimes.MAD, udp.Sites[0].FrameTimes.MAD)
	}
}

func TestSweepRTTProducesMonotonicThreshold(t *testing.T) {
	rtts := []time.Duration{0, 80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond}
	base := Config{Frames: 300, Seed: 8}
	points, err := SweepRTT(base, rtts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rtts) {
		t.Fatalf("points = %d, want %d", len(points), len(rtts))
	}
	for _, p := range points {
		checkOracle(t, base, p.Result)
	}
	// Below the threshold the frame time stays ~16.7ms; far above it it
	// must grow.
	if m := points[0].Result.Sites[0].FrameTimes.Mean; math.Abs(m-16.7) > 1 {
		t.Errorf("RTT 0 frame time %.2fms, want ~16.7ms", m)
	}
	// At RTT 320ms the equilibrium frame period is roughly
	// (RTT/2 + send delays) / BufFrame ≈ 25ms — clearly degraded.
	if points[3].Result.Sites[0].FrameTimes.Mean < points[0].Result.Sites[0].FrameTimes.Mean+5 {
		t.Errorf("RTT 320ms frame time %.2fms did not degrade vs %.2fms",
			points[3].Result.Sites[0].FrameTimes.Mean, points[0].Result.Sites[0].FrameTimes.Mean)
	}
}

func TestSweepLoss(t *testing.T) {
	out, err := SweepLoss(Config{RTT: 60 * time.Millisecond, Frames: 300, Seed: 9},
		[]float64{0, 0.05, 0.20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("results = %d, want 3", len(out))
	}
	for loss, res := range out {
		if !res.Converged {
			t.Errorf("loss %.2f diverged", loss)
		}
	}
}

// TestLocalLagKnee asserts §4.2's argument for a fixed 100 ms local lag: at
// RTT 120 ms under the paper calibration, BufFrame 6 and above hold 60 FPS
// and shorter lags do not. With -v it prints EXPERIMENTS.md's local-lag
// table.
func TestLocalLagKnee(t *testing.T) {
	for _, lag := range []int{2, 4, 6, 9, 12} {
		cfg := PaperCalibration()
		cfg.RTT, cfg.bufFrame, cfg.Frames, cfg.Seed = 120*time.Millisecond, lag, DefaultFrames, 2009
		res := run(t, cfg)
		s := res.Sites[0]
		t.Logf("| %d | %.0f ms | %.2f | %.1f |", lag, float64(lag)*1000/60, s.FrameTimes.MAD, s.FPS)
		if !res.Converged {
			t.Errorf("BufFrame %d: replicas diverged", lag)
		}
		if holds := s.FPS >= 59.5; holds != (lag >= 6) {
			t.Errorf("BufFrame %d: %.1f FPS at RTT 120 ms, want 60 exactly when BufFrame >= 6", lag, s.FPS)
		}
	}
}

func TestPaperRTTs(t *testing.T) {
	rtts := PaperRTTs()
	if len(rtts) != 25 {
		t.Fatalf("sweep has %d points, want 25 (0-200/10 + 250-400/50)", len(rtts))
	}
	if rtts[0] != 0 || rtts[20] != 200*time.Millisecond || rtts[len(rtts)-1] != 400*time.Millisecond {
		t.Errorf("sweep endpoints wrong: %v", rtts)
	}
}

func TestAllGamesRunUnderHarness(t *testing.T) {
	for _, game := range games.Names() {
		res := run(t, Config{RTT: 30 * time.Millisecond, Frames: 200, Seed: 10, Game: game})
		if !res.Converged {
			t.Errorf("%s diverged", game)
		}
	}
}

func TestUnknownGameFails(t *testing.T) {
	if _, err := Run(Config{Game: "zork", Frames: 10}); err == nil {
		t.Fatal("unknown game accepted")
	}
}

func TestRollbackBaselineConvergesAndHoldsFPS(t *testing.T) {
	cfg := Config{RTT: 80 * time.Millisecond, Frames: 400, Seed: 11, Rollback: true}
	res := run(t, cfg)
	if !res.Converged {
		t.Fatal("rollback replicas diverged")
	}
	s := res.Sites[0]
	if s.FPS < 56 {
		t.Errorf("rollback FPS = %.1f at RTT 80ms, want ~60 (latency hiding)", s.FPS)
	}
	if s.Rollback.Rollbacks == 0 {
		t.Error("no rollbacks recorded; baseline not exercised")
	}
	if s.Rollback.SnapshotBytes == 0 {
		t.Error("no snapshot volume recorded")
	}
}

func TestRollbackRejectsObservers(t *testing.T) {
	if _, err := Run(Config{Frames: 10, Rollback: true, Observers: 1}); err == nil {
		t.Fatal("rollback with observers accepted")
	}
}

// TestSoakChurningNetwork runs a 10-virtual-minute session through rotating
// network regimes (latency jumps, loss bursts) — a stability soak. Skipped
// under -short.
func TestSoakChurningNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	res := run(t, Config{
		RTT:       60 * time.Millisecond,
		RTTSwing:  160 * time.Millisecond,
		Loss:      0.03,
		BurstLoss: true,
		Jitter:    4 * time.Millisecond,
		Frames:    36000, // 10 minutes at 60 FPS
		Seed:      99,
		Game:      "duel",
	})
	if !res.Converged {
		t.Fatal("soak run diverged")
	}
	for site, s := range res.Sites {
		if s.Frames != 36000 {
			t.Errorf("site %d executed %d frames, want 36000", site, s.Frames)
		}
		if s.FPS < 45 {
			t.Errorf("site %d averaged %.1f FPS across the churn, want >= 45", site, s.FPS)
		}
	}
}

// TestRTTSwingKeepsLinkCounters: the dir=fwd|rev link series must cover the
// whole run, not stop at the first swing (5 s into this 15 s run). Every
// datagram site 0 sends to site 1 is planned by the fwd direction, so the two
// counts agree up to the handshake and hash-digest datagrams, which are not
// sync messages.
func TestRTTSwingKeepsLinkCounters(t *testing.T) {
	res := run(t, Config{RTT: 60 * time.Millisecond, RTTSwing: 80 * time.Millisecond,
		Frames: 900, Seed: 12})
	planned, _, _, _, _ := netem.LinkStatsFromSnapshot(res.Registry.Snapshot(), obs.Labels{"dir": "fwd"})
	sent := res.Sites[0].Stats.MsgsSent
	if planned < sent || planned > sent+30 {
		t.Errorf("fwd link planned %d datagrams across the swings, site 0 sent %d sync messages", planned, sent)
	}
}

func TestRunSeedsSpread(t *testing.T) {
	mr, err := RunSeeds(Config{RTT: 150 * time.Millisecond, Frames: 400, Seed: 1,
		ProcDelay: 40 * time.Millisecond}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Converged {
		t.Fatal("a seeded run diverged")
	}
	if mr.FrameTime.N != 3 {
		t.Fatalf("aggregated %d runs, want 3", mr.FrameTime.N)
	}
	// At RTT 150 with the paper calibration the deviation varies by seed;
	// the spread statistics must be sane (non-negative, min <= max).
	if mr.Deviation.Min > mr.Deviation.Max || mr.Deviation.Min < 0 {
		t.Fatalf("deviation spread corrupt: %+v", mr.Deviation)
	}
}

func TestHealthAndInputLatency(t *testing.T) {
	// A comfortable RTT: healthy verdict, cross-site latency dominated by
	// the 100 ms local lag, local latency = lag/CFPS by construction.
	//
	// The span journal's first-wins stamps used to race between same-instant
	// actors at GOMAXPROCS >= 2 and saturate these quantiles at 68 719 ms;
	// the schedule no longer depends on the host, so neither do they.
	var res *Result
	var first [2]InputLatencyMs
	for i, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res = run(t, Config{RTT: 40 * time.Millisecond, Frames: 900, Seed: 3})
		runtime.GOMAXPROCS(prev)
		if res.Health != 0 { // obs.Healthy
			t.Fatalf("health at RTT 40ms = %v, want healthy (window %+v)", res.Health, res.HealthWindow)
		}
		if res.HealthWindow.Window == 0 {
			t.Fatal("health engine never evaluated a window")
		}
		for site := 0; site < 2; site++ {
			il := res.InputLatency(site)
			if il.LocalP50 < 50 || il.LocalP50 > 300 {
				t.Errorf("site %d local p50 = %.1fms, want ~100ms (the local lag)", site, il.LocalP50)
			}
			if il.CrossP50 < 50 || il.CrossP50 > 300 {
				t.Errorf("site %d cross p50 = %.1fms, want lag-dominated", site, il.CrossP50)
			}
			if il.SkewP90 == 0 {
				t.Errorf("site %d skew p90 = 0, want live skew observations", site)
			}
			for _, q := range []float64{il.CrossP50, il.CrossP90, il.LocalP50, il.NetP50, il.SkewP90} {
				if q > 1000 {
					t.Errorf("GOMAXPROCS=%d site %d: a latency quantile reads %.0fms: %+v", procs, site, q, il)
				}
			}
			if i == 0 {
				first[site] = il
			} else if il != first[site] {
				t.Errorf("site %d quantiles at GOMAXPROCS=%d are %+v, at 1 they were %+v", site, procs, il, first[site])
			}
		}
	}

	// Past the paper's cliff the verdict must not stay healthy.
	far := run(t, Config{RTT: 200 * time.Millisecond, Frames: 900, Seed: 3})
	if far.Health == 0 {
		t.Fatalf("health at RTT 200ms = healthy, want degraded/infeasible (window %+v)", far.HealthWindow)
	}
	// The buckets are powers of two, so p50 may land on the same bound at
	// both RTTs; it must at least not shrink, and the tail must spread.
	if a, b := res.InputLatency(0).CrossP50, far.InputLatency(0).CrossP50; b < a {
		t.Errorf("cross p50 shrank with RTT: %.1fms at 40ms vs %.1fms at 200ms", a, b)
	}
	if a, b := res.InputLatency(0).CrossP90, far.InputLatency(0).CrossP90; b < a {
		t.Errorf("cross p90 shrank with RTT: %.1fms at 40ms vs %.1fms at 200ms", a, b)
	}
}
