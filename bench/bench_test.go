package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

// The tail a report may quote is the highest percentile that still has at
// least ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},     // p50 leaves 9 beyond
		{20, 0.5, true},    // p50 leaves 10
		{99, 0.5, true},    // p90 leaves 9
		{100, 0.9, true},   // p90 leaves 10, p99 leaves 1
		{1000, 0.99, true}, // p99 leaves 10, p99.9 leaves 1
		{9999, 0.99, true}, // p99.9 leaves 9
		{10000, 0.999, true},
		{307200, 0.9999, true},
	} {
		got, ok := highestSupported(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("1..10: got %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{31, 10, 25, 12, 21, 13, 20, 15, 18, 30})
	if q1 != 12.75 || q3 != 26.25 {
		t.Errorf("unsorted ten: got %v, %v; want 12.75, 26.25", q1, q3)
	}
	if got := spread([]float64{10, 10, 10}); got != 0 {
		t.Errorf("constant readings spread %v, want 0", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	a := newSpanName("test.a")
	// One goroutine's buffer: root [0,100] with children [10,30] and [40,70];
	// the second child has its own child [50,60].
	nested := []span{
		{Name: a, Parent: -1, Start: 0, End: 100},
		{Name: a, Parent: 0, Start: 10, End: 30},
		{Name: a, Parent: 0, Start: 40, End: 70},
		{Name: a, Parent: 2, Start: 50, End: 60},
	}
	if got, want := selfTimes(nested), []int64{50, 20, 20, 10}; !equalInt64(got, want) {
		t.Errorf("nested: got %v, want %v", got, want)
	}
	// Merged from concurrent callers: children overlap each other, arrive out
	// of start order, and one runs past its parent's end. The union of
	// [20,60], [10,40] and [90,120] clipped to [0,100] covers 60.
	overlapping := []span{
		{Name: a, Parent: -1, Start: 0, End: 100},
		{Name: a, Parent: 0, Start: 20, End: 60},
		{Name: a, Parent: 0, Start: 10, End: 40},
		{Name: a, Parent: 0, Start: 90, End: 120},
	}
	if got, want := selfTimes(overlapping), []int64{40, 40, 30, 30}; !equalInt64(got, want) {
		t.Errorf("overlapping: got %v, want %v", got, want)
	}
	// A child wholly inside an earlier sibling adds nothing.
	contained := []span{
		{Name: a, Parent: -1, Start: 0, End: 100},
		{Name: a, Parent: 0, Start: 10, End: 80},
		{Name: a, Parent: 0, Start: 20, End: 30},
	}
	if got := selfTimes(contained)[0]; got != 30 {
		t.Errorf("contained sibling: root self %d, want 30", got)
	}
}

func TestSpanBufNestsByCallStack(t *testing.T) {
	outer, inner := newSpanName("test.outer"), newSpanName("test.inner")
	b := newSpanBuf("t", time.Now(), 8)
	b.setOp(7)
	o := b.begin(outer)
	i := b.begin(inner)
	b.endN(i, 3)
	b.end(o)
	if len(b.spans) != 2 || b.spans[1].Parent != 0 || b.spans[0].Parent != -1 || b.spans[1].N != 3 || b.spans[1].Op != 7 {
		t.Fatalf("spans %+v", b.spans)
	}
	var none *spanBuf // tracing off
	none.end(none.begin(outer))
	agg := aggregate(b, none)
	if agg[inner].Calls != 1 || agg[outer].Self != agg[outer].Total-agg[inner].Total {
		t.Errorf("aggregate %+v", agg)
	}
	if layerOf("relay.Front.Recv") != "relay" {
		t.Errorf("layerOf")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecWithinContractLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must list exactly the names, units, directions and bounds
// the program prints, and the program must print every one of them.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, program has %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if f := b.EndToEnd[i]; f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, program has %+v", i, f, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f := b.PerLayer[i]; f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: file has %+v, program has %+v", i, f, m)
		}
	}

	// The contract line carries exactly the listed metrics, or refuses.
	for _, traced := range []bool{false, true} {
		r := &runResult{Workload: "w", Traced: traced, Attempted: 3, Failed: 1, Incorrect: 1, Metrics: map[string]float64{"not_in_spec": 1}}
		if _, err := r.contractLine(); err == nil {
			t.Error("contractLine accepted a run with unmeasured metrics")
		}
		for i, m := range r.specs() {
			r.Metrics[m.Name] = float64(i) + 0.123456789
		}
		line, err := r.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct || got.Attempted != 3 || got.Failed != 1 || len(got.Metrics) != len(r.specs()) {
			t.Errorf("contract line %s", line)
		}
		for i, m := range r.specs() {
			if g := got.Metrics[m.Name]; g.Unit != m.Unit || g.Value != float64(i)+0.123456789 {
				t.Errorf("%s: line has %+v", m.Name, g)
			}
		}
		// A datagram UDP lost is a failed op, not a wrong output.
		r.Incorrect = 0
		if line, _ := r.contractLine(); !strings.Contains(line, `"correct":true`) || !strings.Contains(line, `"failed":1`) {
			t.Errorf("lost-only run: %s", line[:60])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "t", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"5% slower is inside the bound", steady, scale(steady, 1.05), lower, "ok"},
		{"20% slower", steady, scale(steady, 1.20), lower, "worse"},
		{"20% faster", steady, scale(steady, 0.80), lower, "ok"},
		{"throughput down 20%", steady, scale(steady, 0.80), higher, "worse"},
		{"throughput up 20%", steady, scale(steady, 1.20), higher, "ok"},
		{"spread wider than the bound", []float64{100, 130, 80, 120, 90}, steady, lower, "unresolved"},
		{"wide, but every B beats every A", []float64{100, 130, 80, 120, 90}, scale(steady, 0.5), lower, "ok"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if w := worseBy(100, 110, "lower"); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("worseBy lower: %v", w)
	}
	if w := worseBy(100, 110, "higher"); math.Abs(w+0.10) > 1e-12 {
		t.Errorf("worseBy higher: %v", w)
	}
}

func TestMergedInputCarriesTheLocalLag(t *testing.T) {
	const lag = 6
	for f := 0; f < lag; f++ {
		if got := mergedInput(2009, lag, f); got != 0 {
			t.Errorf("frame %d inside the lag window carries input %#x", f, got)
		}
	}
	if mergedInput(2009, lag, lag) == 0 && mergedInput(2009, lag, lag+1) == 0 && mergedInput(2009, lag, lag+2) == 0 {
		t.Error("frames past the lag window carry no input")
	}
	if n := lockstepSessions("lockstep_clean", 10); n != 80 {
		t.Errorf("lockstep_clean at 10 s runs %d sessions, want 80 (160 at 20 s)", n)
	}
	if n := lockstepSessions("lockstep_lossy", 20); n != 48 {
		t.Errorf("lockstep_lossy at 20 s runs %d sessions, want 48", n)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
