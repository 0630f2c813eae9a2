package main

import (
	"fmt"
	"time"

	"retrolock/internal/trafficgen"
)

// relay_sim_fleet: trafficgen.Run in virtual time — the relay's SimFront and
// StartVirtual paths with bind, pending-park and rebind-after-churn, carried
// by vclock, simnet and netem with about forty actors and no sockets.

const (
	fleetRuns       = 4
	fleetMeasureRef = 8 * time.Second // per run, at refSeconds
)

func fleetMeasure(seconds int) time.Duration {
	return fleetMeasureRef * time.Duration(seconds) / refSeconds
}

// fleetConfig is run i of the workload.
func fleetConfig(seed int64, i int, measure time.Duration) trafficgen.RunConfig {
	return trafficgen.RunConfig{
		Model: trafficgen.Model{
			Sessions: 1024,
			Drivers:  16,
			Think:    trafficgen.ThinkModel{Every: 2 * time.Second, For: 300 * time.Millisecond},
			Churn:    trafficgen.ChurnModel{LeaveEvery: 5 * time.Second, DownFor: 500 * time.Millisecond},
			Seed:     seed + int64(i),
		},
		Profile: "wifi",
		Shards:  2,
		Measure: measure,
	}
}

// fleetWarmConfig is a small run that brings a fresh process to steady state.
func fleetWarmConfig(seed int64) trafficgen.RunConfig {
	cfg := fleetConfig(seed, -1, 500*time.Millisecond)
	cfg.Model.Sessions = 128
	return cfg
}

// fleetSpec tells a child which run of the workload is its share.
type fleetSpec struct {
	Seed    int64         `json:"seed"`
	Run     int           `json:"run"`
	Measure time.Duration `json:"measure"`
	Repeat  bool          `json:"repeat"` // run it a second time for the determinism check
}

// fleetRun is what one trafficgen.Run yielded.
type fleetRun struct {
	WallNs     int64 `json:"wall_ns"`
	Sent       int64 `json:"sent"`
	Recv       int64 `json:"recv"`
	Healthy    int   `json:"healthy"`
	Degraded   int   `json:"degraded"`
	Infeasible int   `json:"infeasible"`
	Leak       int64 `json:"leak"`
	Integrity  int64 `json:"integrity"`
	Miswire    int64 `json:"miswire"`
	Empty      int   `json:"empty"` // attempts that sent nothing before this one (see runFleetOnce)
}

func (r fleetRun) counts() [5]int64 {
	return [5]int64{r.Sent, r.Recv, int64(r.Healthy), int64(r.Degraded), int64(r.Infeasible)}
}

type fleetResult struct {
	Run     fleetRun  `json:"run"`
	Repeat  *fleetRun `json:"repeat,omitempty"` // the same run again, in the same process
	CPUNs   int64     `json:"cpu_ns"`
	PeakMB  float64   `json:"peak_mb"`
	Elapsed float64   `json:"elapsed_s"`
}

// runFleetOnce runs cfg, again if the run came back empty. trafficgen.Run
// spawns its stop controller before its drivers; when the host stalls the
// spawning goroutine in between, the only registered actor is asleep, the
// virtual clock runs to the end of the run, and the drivers start into a
// stopped engine: nothing sent, nothing to measure (seen once in ~250 runs,
// during a neighbour's burst). That is the program's to fix; the benchmark
// counts it (Empty) and measures the next attempt.
func runFleetOnce(cfg trafficgen.RunConfig) (fleetRun, error) {
	var empty int
	for {
		t0 := time.Now()
		res, err := trafficgen.Run(cfg)
		if err != nil {
			return fleetRun{}, err
		}
		if res.Sent == 0 && empty < 2 {
			empty++
			continue
		}
		return fleetRun{
			WallNs: int64(time.Since(t0)), Sent: res.Sent, Recv: res.Recv,
			Healthy: res.Healthy, Degraded: res.Degraded, Infeasible: res.Infeasible,
			Leak: res.LeakErrs, Integrity: res.IntegrityErrs, Miswire: res.MiswireErrs,
			Empty: empty,
		}, nil
	}
}

func fleetChild(cio *childIO, spec fleetSpec) error {
	cio.exitWhenOrphaned()
	t0 := time.Now()
	if _, err := runFleetOnce(fleetWarmConfig(spec.Seed)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := cio.emit(map[string]string{"ev": "ready"}); err != nil {
		return err
	}
	var out fleetResult
	var err error
	cpu0 := selfCPU()
	if out.Run, err = runFleetOnce(fleetConfig(spec.Seed, spec.Run, spec.Measure)); err != nil {
		return err
	}
	out.CPUNs = int64(selfCPU() - cpu0)
	out.PeakMB = peakRSSMB()
	if spec.Repeat {
		// The determinism check: the same seed again, same process, must
		// count the same datagrams and verdicts.
		again, err := runFleetOnce(fleetConfig(spec.Seed, spec.Run, spec.Measure))
		if err != nil {
			return err
		}
		out.Repeat = &again
	}
	out.Elapsed = time.Since(t0).Seconds()
	return cio.finish(out)
}

// fleetFailures turns one run into failed-op counts: every datagram of a run
// that leaked, corrupted or miswired anything, or that did not repeat,
// counts as failed — the run's output cannot be trusted.
func fleetFailures(i int, r fleetRun, repeat *fleetRun) (failed int64, why []string) {
	if r.Leak+r.Integrity+r.Miswire > 0 {
		failed += r.Recv
		why = append(why, fmt.Sprintf("run %d: %d leaked, %d corrupted, %d miswired datagrams", i, r.Leak, r.Integrity, r.Miswire))
	}
	if r.Recv == 0 || r.Recv > r.Sent {
		failed += r.Sent
		why = append(why, fmt.Sprintf("run %d: delivered %d of %d", i, r.Recv, r.Sent))
	}
	if repeat != nil && repeat.counts() != r.counts() {
		failed += r.Recv
		why = append(why, fmt.Sprintf("run %d repeated in-process counted %v, first time %v (sent, recv, healthy, degraded, infeasible)",
			i, repeat.counts(), r.counts()))
	}
	return failed, why
}

// runFleet drives relay_sim_fleet from the parent: one fresh child per run.
func runFleet(seed int64, seconds int) (*runResult, error) {
	measure := fleetMeasure(seconds)
	r := &runResult{Workload: "relay_sim_fleet", Seed: seed, Seconds: seconds}
	r.Ops = map[string]int64{"runs": fleetRuns, "sessions": 1024, "measure_ms": measure.Milliseconds(), "children": fleetRuns}
	var (
		setups, cpus, peaks, perDgram []float64
		sent, recv, wall              int64
		elapsed                       float64
		empty                         int
	)
	for i := 0; i < fleetRuns; i++ {
		var res fleetResult
		setup, err := runChild("fleet", fleetSpec{Seed: seed, Run: i, Measure: measure, Repeat: i == 0}, &res)
		if err != nil {
			return nil, err
		}
		failed, why := fleetFailures(i, res.Run, res.Repeat)
		r.Failed += int(failed)
		r.Incorrect += int(failed)
		r.Failures = append(r.Failures, why...)
		if res.Run.Recv == 0 {
			return nil, fmt.Errorf("relay_sim_fleet: run %d delivered nothing (%v)", i, why)
		}
		sent += res.Run.Sent
		recv += res.Run.Recv
		wall += res.Run.WallNs
		perDgram = append(perDgram, float64(res.Run.WallNs)/1e3/float64(res.Run.Recv)) // wall us per delivered datagram
		setups = append(setups, setup)
		cpus = append(cpus, float64(res.CPUNs)/1e3/float64(res.Run.Recv))
		peaks = append(peaks, res.PeakMB)
		elapsed += res.Elapsed
		empty += res.Run.Empty
		if res.Repeat != nil {
			empty += res.Repeat.Empty
		}
	}
	r.Attempted = int(sent)
	r.Samples = len(perDgram)
	sorted := sortedCopy(perDgram)
	r.Metrics = map[string]float64{
		"setup_s":        median(setups),
		"op_time_p10_us": quantile(sorted, 0.1), // of four runs: the fastest
		"cpu_us_per_op":  median(cpus),
		"peak_rss_mb":    median(peaks),
	}
	r.Diagnostics = map[string]float64{
		"ops_per_s":             float64(recv) / (float64(wall) / 1e9),
		"op_time_p50_us":        median(sorted),
		"op_time_p90_us":        quantile(sorted, 0.9),
		"trafficgen.empty_runs": float64(empty),
	}
	r.Notes = []string{
		fmt.Sprintf("virtual time, %d runs x 1024 sessions x %v measured, one child each, wifi profile, 2 shards; delivered %d of %d (%.0f bp, exact per seed); children's wall %.1f s",
			fleetRuns, measure, recv, sent, 1e4*float64(recv)/float64(sent), elapsed),
	}
	return r, nil
}
