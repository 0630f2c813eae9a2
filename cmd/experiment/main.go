// Command experiment regenerates every figure and analysis of the paper's
// evaluation (§4) plus the extension experiments, on the virtual-time
// testbed. Runs are deterministic for a fixed -seed.
//
// Usage:
//
//	experiment -series figure1              # Figure 1: frame time + deviation vs RTT
//	experiment -series figure2              # Figure 2: cross-site synchrony vs RTT
//	experiment -series threshold            # §4.2 budget analysis at the knee
//	experiment -series journey              # input-journey latency + health verdict vs RTT
//	experiment -series ablation-timer       # Algorithm 4 vs naive pacing
//	experiment -series ablation-transport   # UDP lockstep vs reliable (TCP-like) transport
//	experiment -series ablation-rollback    # local lag vs timewarp rollback
//	experiment -series ablation-adaptivelag # fixed vs adaptive local lag
//	experiment -series loss                 # packet-loss sweep (journal extension)
//	experiment -series burstloss            # Gilbert-Elliott vs independent loss
//	experiment -series bandwidth            # uplink cost vs send pacing
//	experiment -series multisite            # observers (journal extension)
//	experiment -series seeds                # seed-sensitivity spread
//	experiment -series chaos                # deterministic fault-injection soak
//	experiment -series qoeload              # per-profile QoE verdicts under modeled session load
//	experiment -series all                  # everything, in the order above
//
// Any other -series value is a usage error (exit status 2).
//
// -seed and -game override the defaults; -quick trims the sweep for smoke
// runs. Every series runs the paper calibration documented in
// internal/harness.PaperCalibration.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"retrolock/internal/harness"
	"retrolock/internal/metrics"
	"retrolock/internal/rom/games"
)

// seriesTable is every -series name, in the order -series all runs them. It
// drives both the dispatch and the flag's help text.
var seriesTable = []struct {
	name string
	fn   func(harness.Config) error
}{
	{"figure1", fromSweep(printFigure1)},
	{"figure2", fromSweep(printFigure2)},
	{"threshold", fromSweep(printThreshold)},
	{"journey", fromSweep(printJourney)},
	{"ablation-timer", ablationTimer},
	{"ablation-transport", ablationTransport},
	{"ablation-rollback", ablationRollback},
	{"ablation-adaptivelag", ablationAdaptiveLag},
	{"loss", lossSweep},
	{"burstloss", burstLoss},
	{"bandwidth", bandwidth},
	{"multisite", multisite},
	{"seeds", seedSensitivity},
	{"chaos", chaosSeries},
	{"qoeload", qoeload},
}

// seriesNames lists the valid -series values: every series, then "all".
func seriesNames() string {
	names := make([]string, 0, len(seriesTable)+1)
	for _, s := range seriesTable {
		names = append(names, s.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func main() {
	var (
		series = flag.String("series", "all", "which series to run: "+seriesNames())
		seed   = flag.Int64("seed", 2009, "experiment seed (results are deterministic per seed)")
		game   = flag.String("game", "pong", "ROM to run ("+strings.Join(games.Names(), ", ")+")")
		quick  = flag.Bool("quick", false, "coarser sweep and fewer frames, for smoke runs")
		chart  = flag.Bool("chart", true, "render ASCII charts of the figures")
		csvDir = flag.String("csv", "", "also write <dir>/figure1.csv and figure2.csv")
	)
	flag.Parse()
	chartOn, csvTo = *chart, *csvDir

	known := *series == "all"
	for _, s := range seriesTable {
		known = known || s.name == *series
	}
	if !known {
		fmt.Fprintf(os.Stderr, "experiment: unknown -series %q; valid names: %s\n", *series, seriesNames())
		os.Exit(2)
	}

	base := harness.Config{Frames: harness.DefaultFrames, Seed: *seed, Game: *game,
		ProcDelay: harness.PaperCalibration().ProcDelay}
	if *quick {
		base.Frames = 600
	}

	sweepRTTs = harness.PaperRTTs()
	if *quick {
		sweepRTTs = nil
		for ms := 0; ms <= 400; ms += 40 {
			sweepRTTs = append(sweepRTTs, time.Duration(ms)*time.Millisecond)
		}
	}

	for _, s := range seriesTable {
		if *series != "all" && *series != s.name {
			continue
		}
		if err := s.fn(base); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", s.name, err)
			os.Exit(1)
		}
	}
}

var (
	chartOn bool
	csvTo   string

	// Figures 1 and 2, the threshold analysis and the input journey all
	// read one RTT sweep over sweepRTTs, run once and cached in sweep.
	sweepRTTs []time.Duration
	sweep     []harness.SweepPoint
)

// fromSweep makes a series that prints the shared RTT sweep.
func fromSweep(print func([]harness.SweepPoint)) func(harness.Config) error {
	return func(cfg harness.Config) error {
		if sweep == nil {
			var err error
			sweep, err = harness.SweepRTT(cfg, sweepRTTs, func(p harness.SweepPoint) {
				fmt.Fprintf(os.Stderr, "  rtt %v done (%d frames)\n", p.RTT, p.Result.Sites[0].Frames)
			})
			if err != nil {
				return err
			}
		}
		print(sweep)
		return nil
	}
}

// rttLabels renders sparse x-axis labels (every other point).
func rttLabels(points []harness.SweepPoint) []string {
	labels := make([]string, len(points))
	for i, p := range points {
		if i%2 == 0 {
			labels[i] = fmt.Sprintf("%d", p.RTT/time.Millisecond)
		}
	}
	return labels
}

func writeCSV(name, header string, rows func(w *os.File)) {
	if csvTo == "" {
		return
	}
	if err := os.MkdirAll(csvTo, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(csvTo, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, header)
	rows(f)
	fmt.Fprintf(os.Stderr, "wrote %s\n", f.Name())
}

func printFigure1(points []harness.SweepPoint) {
	fmt.Println()
	fmt.Println("Figure 1 — Frame rates and smoothness (site 0)")
	fmt.Println("  RTT(ms)  avg frame time(ms)  avg deviation(ms)     FPS  converged")
	for _, p := range points {
		s := p.Result.Sites[0]
		fmt.Printf("  %7.0f  %18.2f  %17.2f  %6.1f  %v\n",
			float64(p.RTT)/float64(time.Millisecond),
			s.FrameTimes.Mean, s.FrameTimes.MAD, s.FPS, p.Result.Converged)
	}
	if chartOn {
		frame := make([]float64, len(points))
		dev := make([]float64, len(points))
		for i, p := range points {
			frame[i] = p.Result.Sites[0].FrameTimes.Mean
			dev[i] = p.Result.Sites[0].FrameTimes.MAD
		}
		fmt.Println()
		fmt.Print(metrics.Chart("  [ms] vs RTT[ms]", rttLabels(points), 12,
			metrics.ChartSeries{Name: "avg frame time", Marker: '*', Points: frame},
			metrics.ChartSeries{Name: "avg deviation", Marker: 'o', Points: dev}))
	}
	writeCSV("figure1.csv", "rtt_ms,frame_time_ms,deviation_ms,fps,converged", func(w *os.File) {
		for _, p := range points {
			s := p.Result.Sites[0]
			fmt.Fprintf(w, "%d,%.4f,%.4f,%.2f,%v\n", p.RTT/time.Millisecond,
				s.FrameTimes.Mean, s.FrameTimes.MAD, s.FPS, p.Result.Converged)
		}
	})
}

func printFigure2(points []harness.SweepPoint) {
	fmt.Println()
	fmt.Println("Figure 2 — Synchrony between two sites")
	fmt.Println("  RTT(ms)  avg |frame-time difference|(ms)")
	for _, p := range points {
		fmt.Printf("  %7.0f  %31.2f\n",
			float64(p.RTT)/float64(time.Millisecond), p.Result.Sync.AbsMean)
	}
	if chartOn {
		sync := make([]float64, len(points))
		for i, p := range points {
			sync[i] = p.Result.Sync.AbsMean
		}
		fmt.Println()
		fmt.Print(metrics.Chart("  [ms] vs RTT[ms]", rttLabels(points), 12,
			metrics.ChartSeries{Name: "avg |difference|", Marker: '#', Points: sync}))
	}
	writeCSV("figure2.csv", "rtt_ms,sync_ms", func(w *os.File) {
		for _, p := range points {
			fmt.Fprintf(w, "%d,%.4f\n", p.RTT/time.Millisecond, p.Result.Sync.AbsMean)
		}
	})
}

// printJourney reports what the spans measure directly: the true end-to-end
// input latency a remote player experiences (press on one site to execution
// on the other), its local-lag floor, the live skew, and the health SLO
// verdict — per RTT. Quantiles are histogram bucket upper bounds (powers of
// two), so adjacent RTTs can share a value.
func printJourney(points []harness.SweepPoint) {
	fmt.Println()
	fmt.Println("Input journey — cross-site latency and session health (site 0)")
	fmt.Println("  RTT(ms)  cross p50(ms)  cross p90(ms)  local p50(ms)  skew p90(ms)  health")
	for _, p := range points {
		il := p.Result.InputLatency(0)
		fmt.Printf("  %7.0f  %13.1f  %13.1f  %13.1f  %12.1f  %v\n",
			float64(p.RTT)/float64(time.Millisecond),
			il.CrossP50, il.CrossP90, il.LocalP50, il.SkewP90, p.Result.Health)
	}
	writeCSV("journey.csv", "rtt_ms,cross_p50_ms,cross_p90_ms,local_p50_ms,skew_p90_ms,health", func(w *os.File) {
		for _, p := range points {
			il := p.Result.InputLatency(0)
			fmt.Fprintf(w, "%d,%.2f,%.2f,%.2f,%.2f,%v\n", p.RTT/time.Millisecond,
				il.CrossP50, il.CrossP90, il.LocalP50, il.SkewP90, p.Result.Health)
		}
	})
}

// printThreshold reports the §4.2 budget analysis: the first sweep point
// whose average deviation exceeds 5 ms marks the knee.
func printThreshold(points []harness.SweepPoint) {
	fmt.Println()
	fmt.Println("Threshold analysis (§4.2)")
	knee := time.Duration(-1)
	var syncAtKnee float64
	for _, p := range points {
		if p.Result.Sites[0].FrameTimes.MAD > 5 {
			knee = p.RTT
			syncAtKnee = p.Result.Sync.AbsMean
			break
		}
	}
	if knee < 0 {
		fmt.Println("  no knee found within the sweep")
		return
	}
	fmt.Printf("  observed knee: RTT %v (first point with avg deviation > 5 ms)\n", knee)
	fmt.Printf("  paper's knee:  RTT 140ms\n")
	fmt.Printf("  sync deviation at the knee: %.1f ms (paper: ~15 ms)\n", syncAtKnee)
	fmt.Printf("  budget check (§4.2): one-way threshold = 100ms local lag\n")
	fmt.Printf("    - sync deviation (%.0f ms) - send-path delays (~15 ms)\n", syncAtKnee)
	fmt.Printf("    = ~%.0f ms one-way => RTT ~%.0f ms\n", 100-syncAtKnee-15, 2*(100-syncAtKnee-15))
}

func ablationTimer(base harness.Config) error {
	fmt.Println()
	fmt.Println("Ablation — Algorithm 4 (master/slave pacing) vs naive waiting (§3.2)")
	fmt.Println("  startup offset 120ms, RTT 80ms; frame-time deviation of the EARLIER site")
	fmt.Println("  pacer        site0 MAD(ms)  site1 MAD(ms)  sync(ms)")
	for _, naive := range []bool{false, true} {
		cfg := base
		cfg.RTT = 80 * time.Millisecond
		cfg.StartOffset = 120 * time.Millisecond
		cfg.SkipHandshake = true
		cfg.NaivePacer = naive
		res, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		name := "algorithm-4"
		if naive {
			name = "naive      "
		}
		fmt.Printf("  %s  %12.2f  %13.2f  %8.2f\n", name,
			res.Sites[0].FrameTimes.MAD, res.Sites[1].FrameTimes.MAD, res.Sync.AbsMean)
	}
	return nil
}

func ablationTransport(base harness.Config) error {
	fmt.Println()
	fmt.Println("Ablation — UDP lockstep vs reliable in-order transport (§3.1)")
	fmt.Println("  RTT 60ms; loss sweep; site-0 frame time mean / MAD / max (ms)")
	fmt.Println("  loss   udp mean   udp MAD   udp max   arq mean   arq MAD   arq max")
	for _, loss := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		row := make([]float64, 0, 6)
		for _, arq := range []bool{false, true} {
			cfg := base
			cfg.RTT = 60 * time.Millisecond
			cfg.Loss = loss
			cfg.ARQ = arq
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			ft := res.Sites[0].FrameTimes
			row = append(row, ft.Mean, ft.MAD, ft.Max)
		}
		fmt.Printf("  %4.2f   %8.2f  %8.2f  %8.2f  %9.2f  %8.2f  %8.2f\n",
			loss, row[0], row[1], row[2], row[3], row[4], row[5])
	}
	return nil
}

func ablationRollback(base harness.Config) error {
	fmt.Println()
	fmt.Println("Ablation — lockstep (local lag) vs timewarp rollback (§5)")
	fmt.Println("  The paper rejects timewarp because semantic-free rollback is expensive;")
	fmt.Println("  this measures the trade at several RTTs (site 0, per 60s run).")
	fmt.Println("  RTT(ms)  mode       FPS   input lag   rollbacks   replayed   snapshots(MB)   stalls")
	for _, rtt := range []time.Duration{40 * time.Millisecond, 80 * time.Millisecond,
		120 * time.Millisecond, 160 * time.Millisecond, 240 * time.Millisecond} {
		for _, rb := range []bool{false, true} {
			cfg := base
			cfg.RTT = rtt
			cfg.Rollback = rb
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			s := res.Sites[0]
			mode, lag := "lockstep", "100ms"
			if rb {
				mode, lag = "rollback", "0ms"
			}
			fmt.Printf("  %7.0f  %s  %5.1f   %9s   %9d   %8d   %13.1f   %6d\n",
				float64(rtt)/float64(time.Millisecond), mode, s.FPS, lag,
				s.Rollback.Rollbacks, s.Rollback.ReplayedFrames,
				float64(s.Rollback.SnapshotBytes)/1e6, s.Rollback.StallFrames)
		}
	}
	return nil
}

func lossSweep(base harness.Config) error {
	fmt.Println()
	fmt.Println("Extension — packet loss (journal version, §6)")
	fmt.Println("  RTT 60ms; per-direction loss probability")
	fmt.Println("  loss   frame time(ms)   MAD(ms)   sync(ms)   dup inputs   converged")
	losses := []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}
	cfg := base
	cfg.RTT = 60 * time.Millisecond
	results, err := harness.SweepLoss(cfg, losses, nil)
	if err != nil {
		return err
	}
	for _, loss := range losses {
		res := results[loss]
		s := res.Sites[0]
		fmt.Printf("  %4.2f   %14.2f  %8.2f  %9.2f  %11d  %v\n",
			loss, s.FrameTimes.Mean, s.FrameTimes.MAD, res.Sync.AbsMean,
			s.Stats.InputsDup, res.Converged)
	}
	return nil
}

func ablationAdaptiveLag(base harness.Config) error {
	fmt.Println()
	fmt.Println("Ablation — fixed 100ms local lag vs adaptive lag (§4.2)")
	fmt.Println("  The paper fixes the lag, arguing adaptation \"does not pay off\".")
	fmt.Println("  scenario              lag mode   avg lag(frames)   changes   MAD(ms)    FPS")
	type scenario struct {
		name  string
		rtt   time.Duration
		swing time.Duration
	}
	for _, sc := range []scenario{
		{"steady RTT 40ms  ", 40 * time.Millisecond, 0},
		{"steady RTT 120ms ", 120 * time.Millisecond, 0},
		{"steady RTT 200ms ", 200 * time.Millisecond, 0},
		{"swinging 60/200ms", 60 * time.Millisecond, 140 * time.Millisecond},
	} {
		for _, adaptive := range []bool{false, true} {
			cfg := base
			cfg.RTT = sc.rtt
			cfg.RTTSwing = sc.swing
			cfg.AdaptiveLag = adaptive
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			s := res.Sites[0]
			mode, avgLag := "fixed   ", 6.0
			if adaptive {
				mode, avgLag = "adaptive", s.AvgLag
			}
			fmt.Printf("  %s   %s   %15.1f   %7d   %7.2f   %5.1f\n",
				sc.name, mode, avgLag, s.LagChanges, s.FrameTimes.MAD, s.FPS)
		}
	}
	return nil
}

func burstLoss(base harness.Config) error {
	fmt.Println()
	fmt.Println("Extension — bursty vs independent loss (journal version, §6)")
	fmt.Println("  RTT 60ms; Gilbert-Elliott bursts (mean length 6) at the same long-run rate")
	fmt.Println("  loss   process      frame(ms)   MAD(ms)   max(ms)   converged")
	for _, loss := range []float64{0.02, 0.05, 0.10} {
		for _, burst := range []bool{false, true} {
			cfg := base
			cfg.RTT = 60 * time.Millisecond
			cfg.Loss = loss
			cfg.BurstLoss = burst
			cfg.MeanBurst = 6
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			name := "independent"
			if burst {
				name = "bursty     "
			}
			s := res.Sites[0].FrameTimes
			fmt.Printf("  %4.2f   %s  %9.2f  %8.2f  %8.2f   %v\n",
				loss, name, s.Mean, s.MAD, s.Max, res.Converged)
		}
	}
	return nil
}

func bandwidth(base harness.Config) error {
	fmt.Println()
	fmt.Println("Extension — bandwidth vs send pacing (§4.2's interactivity/resource balance)")
	fmt.Println("  RTT 150ms (near the knee); per-site uplink over a 60s run")
	fmt.Println("  interval   msgs/s   KB/s up   frame(ms)   MAD(ms)")
	for _, ivl := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond} {
		cfg := base
		cfg.RTT = 150 * time.Millisecond
		cfg.SendInterval = ivl
		res, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		s := res.Sites[0]
		secs := res.Elapsed.Seconds()
		fmt.Printf("  %8v   %6.1f   %7.2f   %9.2f  %8.2f\n",
			ivl, float64(s.Stats.MsgsSent)/secs, float64(s.Stats.BytesSent)/1024/secs,
			s.FrameTimes.Mean, s.FrameTimes.MAD)
	}
	fmt.Println("  (the paper fixes the interval at 20ms: \"strike a balance between")
	fmt.Println("   interactivity and utilization of system resources\")")
	return nil
}

func seedSensitivity(base harness.Config) error {
	fmt.Println()
	fmt.Println("Robustness — seed sensitivity (5 seeds per point)")
	fmt.Println("  the paper reports single runs; this shows the spread our virtual")
	fmt.Println("  testbed would put behind each figure point")
	fmt.Println("  RTT(ms)   deviation min/mean/max (ms)    sync min/mean/max (ms)")
	for _, rtt := range []time.Duration{60 * time.Millisecond, 140 * time.Millisecond,
		160 * time.Millisecond, 200 * time.Millisecond} {
		cfg := base
		cfg.RTT = rtt
		mr, err := harness.RunSeeds(cfg, 5)
		if err != nil {
			return err
		}
		fmt.Printf("  %7.0f   %7.2f /%7.2f /%7.2f    %7.2f /%7.2f /%7.2f\n",
			float64(rtt)/float64(time.Millisecond),
			mr.Deviation.Min, mr.Deviation.Mean, mr.Deviation.Max,
			mr.Sync.Min, mr.Sync.Mean, mr.Sync.Max)
	}
	return nil
}

func multisite(base harness.Config) error {
	fmt.Println()
	fmt.Println("Extension — observers (journal version, §6)")
	fmt.Println("  RTT 60ms; N spectator sites receive forwarded merged inputs")
	fmt.Println("  observers   player FPS   all converged   virtual elapsed")
	for _, obs := range []int{0, 1, 2, 4} {
		cfg := base
		cfg.RTT = 60 * time.Millisecond
		cfg.Observers = obs
		res, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %9d   %10.1f   %13v   %v\n",
			obs, res.Sites[0].FPS, res.Converged, res.Elapsed.Round(time.Millisecond))
	}
	return nil
}
