// Command bench is retrolock's benchmark: five named workloads, four gated
// end-to-end metrics measured from outside the program under test, and a
// per-layer ledger from a separate traced run. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload lockstep_clean --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -runs 10 -out base.json        # every workload, human report + result file
//	bash bench/run.sh -compare base.json change.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// watchdog is the longest one invocation may take in driver mode; the
// driver's own limit is 180 s and nothing the benchmark started may be left
// behind when it strikes.
const watchdog = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in driver mode: the last stdout line is the result object (empty: every workload, human report)")
		seed     = flag.Int64("seed", 2009, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured length the op counts are sized for (counts scale with it; 20 is ISSUE 14's sizing)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer ledger")
		runs     = flag.Int("runs", 1, "human mode: runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "human mode: write the result file here (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		child    = flag.String("child", "", "internal: run as a re-executed child")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs())
	// The harness falls back to this variable for flight-recorder bundles;
	// the benchmark writes nothing outside its checkout.
	_ = os.Unsetenv("RETROLOCK_FLIGHT_DIR")

	var err error
	switch {
	case *child != "":
		err = childMain(*child)
	case *compare:
		err = compareMain(flag.Args())
	case *workload != "":
		err = driverMain(*workload, *seed, *seconds, *trace)
	default:
		err = humanMain(*seed, *seconds, *trace, *runs, *out)
	}
	killAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(mode string) error {
	cio := newChildIO()
	switch mode {
	case "lockstep":
		var spec lockstepSpec
		if err := cio.recv(&spec); err != nil {
			return err
		}
		return lockstepChild(cio, spec)
	case "fleet":
		var spec fleetSpec
		if err := cio.recv(&spec); err != nil {
			return err
		}
		return fleetChild(cio, spec)
	case "relay":
		var spec relaySpec
		if err := cio.recv(&spec); err != nil {
			return err
		}
		return relayChild(cio, spec)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// runWorkload is one run of one workload, traced or not.
func runWorkload(name string, seed int64, seconds int, traced bool) (*runResult, error) {
	if seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if traced {
		return runTraced(name, seed, seconds)
	}
	switch name {
	case "lockstep_clean", "lockstep_lossy":
		return runLockstep(name, seed, seconds)
	case "relay_udp_bare", "relay_udp_telemetry":
		return runRelayUDP(name, seed, seconds)
	case "relay_sim_fleet":
		return runFleet(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// driverMain is the contract's entry point: one workload, one run, a report
// for people and then the result object as the last line of stdout.
func driverMain(name string, seed int64, seconds, trace int) error {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded", watchdog)
		killAllChildren()
		os.Exit(2)
	})
	r, err := runWorkload(name, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	printRun(os.Stdout, r)
	line, err := r.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// humanMain runs every workload (runs times each), prints the report, writes
// the result file and fails when any output was wrong.
func humanMain(seed int64, seconds, trace, runs int, out string) error {
	file := resultFile{Host: readHostInfo(), Seed: seed, Seconds: seconds, Traced: trace == 1}
	fmt.Printf("retrolock bench: host %s, %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		file.Host.Host, file.Host.CPU, file.Host.NProc, file.Host.GOMAXPROCS, file.Host.Go, file.Host.Commit)
	bad := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			r, err := runWorkload(w.Name, seed+int64(i), seconds, trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printRun(os.Stdout, r)
			file.Runs = append(file.Runs, r)
			bad += r.Incorrect
		}
	}
	if runs > 1 && trace == 0 {
		printSpreads(os.Stdout, file.Runs)
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if bad > 0 {
		return fmt.Errorf("%d ops produced wrong output", bad)
	}
	return nil
}
