package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runResult is one run of one workload: what the contract line, the human
// report, the result file and -compare are all made from.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Traced      bool               `json:"traced"`
	Ops         map[string]int64   `json:"ops"` // the fixed op counts this run executed
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`    // ops that failed, wrong outputs included
	Incorrect   int                `json:"incorrect"` // ops whose output was wrong; a datagram UDP lost is failed, not wrong
	Failures    []string           `json:"failures,omitempty"`
	Samples     int                `json:"samples"`               // timing samples behind op_time_*
	Metrics     map[string]float64 `json:"metrics"`               // end-to-end, or the per-layer ledger when traced
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"` // printed, never gated
	Notes       []string           `json:"notes,omitempty"`
	Trace       *traceReport       `json:"trace,omitempty"`
}

func (r *runResult) specs() []metricSpec {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the one-line result object the driver reads.
func (r *runResult) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Incorrect == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	if out.Attempted < 1 {
		return "", errors.New("no ops attempted")
	}
	for _, m := range r.specs() {
		v, ok := r.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured (%v)", r.Workload, m.Name, v)
		}
		out.Metrics[m.Name] = mv{v, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printRun(w io.Writer, r *runResult) {
	mode := "tracing off"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  seconds %d  %s ==\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  ", n)
	}
	fmt.Fprintf(w, "   ops: %s; attempted %d, failed %d, of which wrong output %d\n", fmtOps(r.Ops), r.Attempted, r.Failed, r.Incorrect)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "   FAILED:", f)
	}
	for _, m := range r.specs() {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		extra := ""
		if m.Bound > 0 {
			extra = fmt.Sprintf("  [%s is better, bound %.0f%%]", m.Better, m.Bound*100)
		}
		if strings.HasPrefix(m.Name, "op_time_") {
			extra += fmt.Sprintf("  n=%d", r.Samples)
		}
		fmt.Fprintf(w, "   %-32s %16.4f %-8s%s\n", m.Name, v, m.Unit, extra)
	}
	if len(r.Diagnostics) > 0 {
		fmt.Fprintln(w, "   diagnostics (not gated):")
		for _, k := range sortedKeys(r.Diagnostics) {
			fmt.Fprintf(w, "   %-40s %14.3f\n", k, r.Diagnostics[k])
		}
	}
	if r.Trace != nil {
		r.Trace.print(w)
	}
}

func fmtOps(ops map[string]int64) string {
	parts := make([]string, 0, len(ops))
	for _, k := range sortedKeys(ops) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, ops[k]))
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host    hostInfo     `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds int          `json:"seconds"`
	Traced  bool         `json:"traced"`
	Runs    []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one workload's readings of one metric or diagnostic across
// untraced runs.
func values(runs []*runResult, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		} else if v, ok := r.Diagnostics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// printSpreads shows, per workload and end-to-end metric, the median of the
// runs and their interquartile spread as a share of it, next to the bound.
func printSpreads(w io.Writer, runs []*runResult) {
	fmt.Fprintf(w, "\n== run-to-run spread: (Q3-Q1)/median per workload and metric ==\n")
	fmt.Fprintf(w, "   %-22s %-16s %4s %14s %9s %7s\n", "workload", "metric", "n", "median", "spread", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := values(runs, wl.Name, m.Name)
			if len(v) < 2 {
				continue
			}
			flag := ""
			switch s := spread(v); {
			case s > m.Bound:
				flag = "  WIDER THAN BOUND"
			case s > m.Bound/3:
				flag = "  above a third of the bound"
			}
			fmt.Fprintf(w, "   %-22s %-16s %4d %14.4f %8.2f%% %6.0f%%%s\n", wl.Name, m.Name, len(v), median(v), 100*spread(v), 100*m.Bound, flag)
		}
		for _, name := range diagnosticNames {
			if v := values(runs, wl.Name, name); len(v) >= 2 {
				fmt.Fprintf(w, "   %-22s %-16s %4d %14.4f %8.2f%%  (not gated)\n", wl.Name, name, len(v), median(v), 100*spread(v))
			}
		}
	}
}

// worseBy is how much worse b is than a, as a share of a, for a metric whose
// better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict compares two sets of readings of one metric under its bound:
// "worse" when B's median is worse than A's by more than the bound,
// "unresolved" when either side's own spread is wider than the bound (the
// data cannot tell) unless every B reading beats every A reading, else "ok".
func verdict(a, b []float64, m metricSpec) string {
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(a, b, m.Better) {
			return "ok"
		}
		return "unresolved"
	}
	if worseBy(median(a), median(b), m.Better) > m.Bound {
		return "worse"
	}
	return "ok"
}

func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareMain prints A against B and fails on any "worse".
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	// Numbers from different machines, core counts, toolchains or op counts
	// are not comparable; say so instead of printing a misleading diff.
	ha, hb := a.Host, b.Host
	if ha.CPU != hb.CPU || ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.Go != hb.Go || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: A ran on %q nproc %d GOMAXPROCS %d %s seconds %d, B on %q nproc %d GOMAXPROCS %d %s seconds %d",
			ha.CPU, ha.NProc, ha.GOMAXPROCS, ha.Go, a.Seconds, hb.CPU, hb.NProc, hb.GOMAXPROCS, hb.Go, b.Seconds)
	}
	fmt.Printf("A: %s  commit %s  seed %d  (%d runs)\nB: %s  commit %s  seed %d  (%d runs)\n",
		args[0], ha.Commit, a.Seed, len(a.Runs), args[1], hb.Commit, b.Seed, len(b.Runs))
	fmt.Printf("%-22s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a.Runs, wl.Name, m.Name), values(b.Runs, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-22s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.Name, m.Name,
				median(va), median(vb), 100*worseBy(median(va), median(vb), m.Better), 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse than their bound allows", worse)
	}
	return nil
}
