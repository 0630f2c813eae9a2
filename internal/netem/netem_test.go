package netem

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

var now = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

func TestConstantDelayNoKnobs(t *testing.T) {
	e := New(Config{Delay: 70 * time.Millisecond, Seed: 1})
	for i := 0; i < 100; i++ {
		offs := e.Plan(now, 100)
		if len(offs) != 1 || offs[0] != 70*time.Millisecond {
			t.Fatalf("Plan = %v, want exactly [70ms]", offs)
		}
	}
}

func TestJitterBoundsAndSpread(t *testing.T) {
	const base, jit = 50 * time.Millisecond, 10 * time.Millisecond
	e := New(Config{Delay: base, Jitter: jit, Seed: 2})
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < 2000; i++ {
		offs := e.Plan(now, 100)
		d := offs[0]
		if d < base-jit || d > base+jit {
			t.Fatalf("delay %v outside [%v,%v]", d, base-jit, base+jit)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < jit { // should cover most of the 20ms window
		t.Errorf("jitter spread only %v over 2000 samples; PRNG not spreading", hi-lo)
	}
}

func TestLossRateApproximate(t *testing.T) {
	e := New(Config{Delay: time.Millisecond, Loss: 0.25, Seed: 3})
	const n = 10000
	lost := 0
	for i := 0; i < n; i++ {
		if len(e.Plan(now, 100)) == 0 {
			lost++
		}
	}
	got := float64(lost) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("observed loss %.3f, want ~0.25", got)
	}
	planned, dropped, _, _ := e.Stats()
	if planned != n || dropped != lost {
		t.Errorf("stats planned=%d dropped=%d, want %d/%d", planned, dropped, n, lost)
	}
}

func TestDuplicationRate(t *testing.T) {
	e := New(Config{Delay: time.Millisecond, Duplicate: 0.5, Seed: 4})
	const n = 4000
	copies := 0
	for i := 0; i < n; i++ {
		copies += len(e.Plan(now, 100))
	}
	got := float64(copies)/n - 1
	if got < 0.45 || got > 0.55 {
		t.Errorf("observed duplication %.3f, want ~0.5", got)
	}
}

func TestReorderAddsExtraDelay(t *testing.T) {
	e := New(Config{Delay: 20 * time.Millisecond, Reorder: 1.0, Seed: 5})
	offs := e.Plan(now, 100)
	if offs[0] != 30*time.Millisecond {
		t.Errorf("reordered delay = %v, want 30ms (delay + 10ms hold-back)", offs[0])
	}
	_, _, _, reordered := e.Stats()
	if reordered != 1 {
		t.Errorf("reordered counter = %d, want 1", reordered)
	}
}

func TestReorderExtraDefaults(t *testing.T) {
	withJitter := New(Config{Jitter: 5 * time.Millisecond})
	if got := withJitter.reorderExtraLocked(); got != 20*time.Millisecond {
		t.Errorf("default extra with jitter = %v, want 4*jitter = 20ms", got)
	}
	plain := New(Config{})
	if got := plain.reorderExtraLocked(); got != 10*time.Millisecond {
		t.Errorf("default extra without jitter = %v, want 10ms", got)
	}
}

func TestProcDelayWithinQuantum(t *testing.T) {
	const q = 10 * time.Millisecond
	e := New(Config{ProcDelay: q, Seed: 6})
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		d := e.Plan(now, 100)[0]
		if d < 0 || d >= q {
			t.Fatalf("proc delay %v outside [0,%v)", d, q)
		}
		sum += d
	}
	avg := sum / n
	// §4.2: a 10 ms quantum yields a ~5 ms average delay.
	if avg < 4*time.Millisecond || avg > 6*time.Millisecond {
		t.Errorf("average proc delay %v, want ~5ms", avg)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	cfg := Config{Delay: 30 * time.Millisecond, Jitter: 8 * time.Millisecond, Loss: 0.1, Duplicate: 0.05, Seed: 42}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 1000; i++ {
		pa, pb := a.Plan(now, 64), b.Plan(now, 64)
		if len(pa) != len(pb) {
			t.Fatalf("packet %d: plans diverge in count: %v vs %v", i, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("packet %d copy %d: %v vs %v", i, j, pa[j], pb[j])
			}
		}
	}
}

func TestNegativeDelayClampedToZero(t *testing.T) {
	// Jitter larger than delay must not produce negative offsets.
	e := New(Config{Delay: time.Millisecond, Jitter: 50 * time.Millisecond, Seed: 8})
	for i := 0; i < 1000; i++ {
		for _, d := range e.Plan(now, 10) {
			if d < 0 {
				t.Fatalf("negative delay %v", d)
			}
		}
	}
}

func TestBurstLossRateAndClustering(t *testing.T) {
	const n = 40000
	indep := New(Config{Delay: time.Millisecond, Loss: 0.10, Seed: 21})
	burst := New(Config{Delay: time.Millisecond, Loss: 0.10, BurstLoss: true, MeanBurst: 6, Seed: 21})

	runLen := func(e *Emulator) (rate float64, meanRun float64) {
		lost, runs, runSum := 0, 0, 0
		cur := 0
		for i := 0; i < n; i++ {
			dropped := len(e.Plan(now, 64)) == 0
			if dropped {
				lost++
				cur++
			} else if cur > 0 {
				runs++
				runSum += cur
				cur = 0
			}
		}
		if cur > 0 {
			runs++
			runSum += cur
		}
		if runs == 0 {
			return float64(lost) / n, 0
		}
		return float64(lost) / n, float64(runSum) / float64(runs)
	}

	iRate, iRun := runLen(indep)
	bRate, bRun := runLen(burst)
	// Both processes target the same long-run rate.
	if iRate < 0.08 || iRate > 0.12 {
		t.Errorf("independent loss rate %.3f, want ~0.10", iRate)
	}
	if bRate < 0.07 || bRate > 0.13 {
		t.Errorf("burst loss rate %.3f, want ~0.10", bRate)
	}
	// The burst process must cluster: clearly longer loss runs.
	if bRun < iRun*2 {
		t.Errorf("burst mean run %.2f vs independent %.2f; no clustering", bRun, iRun)
	}
}

func TestBurstLossDefaults(t *testing.T) {
	e := New(Config{Loss: 0.05, BurstLoss: true})
	if e.cfg.MeanBurst != 4 {
		t.Errorf("defaults not applied: %+v", e.cfg)
	}
}

func TestDuplicateSubjectToReorderKnob(t *testing.T) {
	e := New(Config{Delay: 10 * time.Millisecond, Duplicate: 1.0, Reorder: 1.0, Seed: 10})
	offs := e.Plan(now, 100)
	if len(offs) != 2 {
		t.Fatalf("Plan returned %d copies, want 2", len(offs))
	}
	for i, off := range offs {
		if off != 20*time.Millisecond {
			t.Errorf("copy %d offset = %v, want 20ms (delay + 10ms hold-back)", i, off)
		}
	}
	_, _, _, reordered := e.Stats()
	if reordered != 2 {
		t.Errorf("reordered counter = %d, want 2 (both copies roll the knob)", reordered)
	}
}

func TestCorruptFlipsExactlyOneBitInACopy(t *testing.T) {
	e := New(Config{Corrupt: 1.0, Seed: 11})
	p := make([]byte, 32)
	for i := range p {
		p[i] = 0xAA
	}
	orig := append([]byte(nil), p...)
	q, changed := e.Corrupt(p)
	if !changed {
		t.Fatal("Corrupt = unchanged at probability 1.0")
	}
	for i := range p {
		if p[i] != orig[i] {
			t.Fatalf("input slice mutated at byte %d; Corrupt must return a fresh copy", i)
		}
	}
	flipped := 0
	for i := range q {
		d := q[i] ^ orig[i]
		for ; d != 0; d &= d - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("%d bits flipped, want exactly 1", flipped)
	}
	if e.Corrupted() != 1 {
		t.Errorf("Corrupted() = %d, want 1", e.Corrupted())
	}

	off := New(Config{Seed: 12})
	q2, changed := off.Corrupt(p)
	if changed || len(q2) != len(p) || &q2[0] != &p[0] {
		t.Error("Corrupt at probability 0 must return the input slice unchanged")
	}
}

// TestConfigJSONRoundTrip fills every Config field with a non-zero value and
// requires it to survive MarshalJSON and a plain decode, so a field added to
// Config cannot be dropped from capture metadata unnoticed.
func TestConfigJSONRoundTrip(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Float64:
			f.SetFloat(float64(i) / 100)
		default:
			t.Fatalf("field %s: kind %v not covered", v.Type().Field(i).Name, f.Kind())
		}
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Errorf("round trip through %s\n got %+v\nwant %+v", b, got, cfg)
	}
}
