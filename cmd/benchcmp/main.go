// Command benchcmp diffs two benchjson reports and fails on hot-path
// regressions, so CI can gate a PR's perf against the checked-in baseline:
//
//	benchcmp BENCH_PR10.json BENCH_NEW.json
//
// Every benchmark present in both files is printed with its ns/op delta.
// Benchmarks matching -gate (default: the sync hot path) fail the run when
// ns/op regresses by more than -threshold (default 15%) or when allocs/op
// grows at all — the zero-allocation budget is part of the contract, not a
// soft target. A gated benchmark that exists in the baseline but is missing
// from the fresh run also fails: a renamed or deleted hot-path benchmark
// would otherwise silently un-gate itself. Ungated benchmarks present in
// only one file are listed but never fail: new PRs add new benchmarks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Result mirrors cmd/benchjson's output element.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

var (
	threshold = flag.Float64("threshold", 0.15, "max tolerated ns/op regression on gated benchmarks (0.15 = +15%)")
	gate      = flag.String("gate", "SyncHotPath|SyncInputNoWait|SyncHotPathFlight|StateHashIncremental|SavestateDelta|RelayDemux|RelayShardStep|HistorySample", "regexp of benchmark names that fail the run on regression")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchcmp [flags] <old.json> <new.json>\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	re, err := regexp.Compile(*gate)
	if err != nil {
		fatal(fmt.Errorf("bad -gate: %w", err))
	}
	report, failures := compare(old, cur, *threshold, re)
	os.Stdout.WriteString(report)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchcmp: %d hot-path regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
	os.Exit(2)
}

func load(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// compare renders the diff table and collects gate failures.
func compare(old, cur []Result, threshold float64, gate *regexp.Regexp) (string, []string) {
	oldBy := map[string]Result{}
	for _, r := range old {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(cur))
	curBy := map[string]Result{}
	for _, r := range cur {
		curBy[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)

	var b strings.Builder
	var failures []string
	fmt.Fprintf(&b, "%-44s %12s %12s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, name := range names {
		n := curBy[name]
		o, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(&b, "%-44s %12s %12.1f %8s %10s\n", name, "-", n.NsPerOp, "new", allocsCol(-1, n.AllocsPerOp))
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		gated := gate.MatchString(name)
		mark := ""
		if gated {
			if delta > threshold {
				mark = " !"
				failures = append(failures, fmt.Sprintf("%s: ns/op %.1f -> %.1f (%+.1f%%, limit +%.0f%%)",
					name, o.NsPerOp, n.NsPerOp, delta*100, threshold*100))
			}
			if o.AllocsPerOp >= 0 && n.AllocsPerOp > o.AllocsPerOp {
				mark = " !"
				failures = append(failures, fmt.Sprintf("%s: allocs/op %d -> %d (any growth fails)",
					name, o.AllocsPerOp, n.AllocsPerOp))
			}
		}
		fmt.Fprintf(&b, "%-44s %12.1f %12.1f %+7.1f%% %10s%s\n",
			name, o.NsPerOp, n.NsPerOp, delta*100, allocsCol(o.AllocsPerOp, n.AllocsPerOp), mark)
	}
	gone := make([]string, 0)
	for name := range oldBy {
		if _, ok := curBy[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		mark := ""
		if gate.MatchString(name) {
			mark = " !"
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from the fresh run (baseline %.1f ns/op)",
				name, oldBy[name].NsPerOp))
		}
		fmt.Fprintf(&b, "%-44s %12.1f %12s %8s%s\n", name, oldBy[name].NsPerOp, "-", "gone", mark)
	}
	return b.String(), failures
}

func allocsCol(old, cur int64) string {
	switch {
	case cur < 0:
		return "-"
	case old < 0 || old == cur:
		return fmt.Sprintf("%d", cur)
	default:
		return fmt.Sprintf("%d->%d", old, cur)
	}
}
