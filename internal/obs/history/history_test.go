package history

import (
	"math/rand"
	"testing"
	"time"

	"retrolock/internal/obs"
)

var testEpoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// TestDownsamplingConservesTotals is the store's core property: because a
// coarse slot accumulates exactly the base-tick deltas of the ticks it
// covers, the sum over all retained slots is identical at every resolution —
// for counters, histogram observation counts, histogram value sums, and
// per-bucket histogram counts. Random traffic, every configured resolution,
// no eviction (each run is shorter than the smallest ring's span).
func TestDownsamplingConservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		store := NewStore(Config{Resolutions: []Resolution{
			{Step: time.Second, Slots: 300},
			{Step: 7 * time.Second, Slots: 60}, // deliberately non-decade step
			{Step: 60 * time.Second, Slots: 10},
		}})

		var counter float64
		var gauge float64
		hist := &obs.Histogram{}

		// Traffic before tracking must never be retained: Track* captures the
		// cumulative state as the delta baseline.
		counter += float64(rng.Intn(1000))
		for i := 0; i < rng.Intn(50); i++ {
			hist.Observe(rng.Int63n(1 << 30))
		}
		baselineCounter := counter
		baselineCount := hist.Count()
		baselineSum := hist.Sum()
		baselineBuckets := hist.Buckets()

		store.TrackCounter("c", func() float64 { return counter })
		store.TrackGauge("g", func() float64 { return gauge })
		store.TrackHistogram("h", hist)

		n := 20 + rng.Intn(200)
		now := testEpoch
		for i := 0; i < n; i++ {
			counter += float64(rng.Intn(100))
			gauge = float64(rng.Intn(1000))
			for j := 0; j < rng.Intn(20); j++ {
				hist.Observe(rng.Int63n(1 << 40))
			}
			now = now.Add(time.Second)
			store.Sample(now)
		}

		wantCounter := counter - baselineCounter
		wantCount := float64(hist.Count() - baselineCount)
		wantSum := float64(hist.Sum() - baselineSum)
		window := time.Duration(n) * time.Second

		for ri, res := range store.Resolutions() {
			// Counter: per-slot deltas sum to the total folded increment.
			pts, _, ok := store.QueryScalar("c", res.Step, window)
			if !ok {
				t.Fatalf("trial %d res %v: counter query failed", trial, res.Step)
			}
			var sum float64
			for _, p := range pts {
				sum += p.Value
			}
			if sum != wantCounter {
				t.Errorf("trial %d res %v: counter sum = %v, want %v (%d slots)",
					trial, res.Step, sum, wantCounter, len(pts))
			}
			// Gauge: the newest slot holds the last sampled value.
			gpts, _, _ := store.QueryScalar("g", res.Step, window)
			if len(gpts) == 0 || gpts[len(gpts)-1].Value != gauge {
				t.Errorf("trial %d res %v: gauge last = %v, want %v", trial, res.Step,
					gpts[len(gpts)-1].Value, gauge)
			}
			// Histogram: observation counts and value sums conserve.
			cpts, _, _ := store.QueryHist("h", res.Step, window, StatCount, 0)
			spts, _, _ := store.QueryHist("h", res.Step, window, StatSum, 0)
			var csum, ssum float64
			for _, p := range cpts {
				csum += p.Value
			}
			for _, p := range spts {
				ssum += p.Value
			}
			if csum != wantCount || ssum != wantSum {
				t.Errorf("trial %d res %v: hist count/sum = %v/%v, want %v/%v",
					trial, res.Step, csum, ssum, wantCount, wantSum)
			}
			// Per-bucket conservation, via the ring internals: with no
			// eviction, the whole ring's bucket content is the retained total.
			store.mu.Lock()
			hs := &store.hists[store.histIx["h"]]
			var bucketTotals obs.BucketCounts
			r := &hs.res[ri]
			for i := 0; i < len(r.counts); i++ {
				for b := 0; b < obs.NumBuckets; b++ {
					bucketTotals[b] += r.buckets[i*obs.NumBuckets+b]
				}
			}
			store.mu.Unlock()
			cur := hist.Buckets()
			for b := 0; b < obs.NumBuckets; b++ {
				if want := cur[b] - baselineBuckets[b]; bucketTotals[b] != want {
					t.Fatalf("trial %d res %v bucket %d: retained %d, want %d",
						trial, res.Step, b, bucketTotals[b], want)
				}
			}
		}

		// The alert engine's windowed reduction agrees with the queries.
		sum, covered, ok := store.WindowCounterSum("c", window)
		if !ok || sum != wantCounter {
			t.Errorf("trial %d: WindowCounterSum = %v (ok=%v), want %v", trial, sum, ok, wantCounter)
		}
		if covered <= 0 || covered > window {
			t.Errorf("trial %d: covered = %v, want in (0, %v]", trial, covered, window)
		}
	}
}

// TestCounterResetClamps pins the counter-reset rule: a decreasing counter
// contributes zero to its slot, never a negative delta.
func TestCounterResetClamps(t *testing.T) {
	store := NewStore(Config{})
	var c float64 = 100
	store.TrackCounter("c", func() float64 { return c })
	now := testEpoch
	c = 150
	now = now.Add(time.Second)
	store.Sample(now)
	c = 30 // process restarted; counter reset below baseline
	now = now.Add(time.Second)
	store.Sample(now)
	c = 40
	now = now.Add(time.Second)
	store.Sample(now)
	sum, _, _ := store.WindowCounterSum("c", 10*time.Second)
	if sum != 60 {
		t.Errorf("counter sum across a reset = %v, want 60 (50 + clamped 0 + 10)", sum)
	}
}

// TestSampleSteadyStateAllocs is the tier-1 twin of BenchmarkHistorySample
// (repo root, make bench-hotpath): once the rings exist, folding a base
// tick — including the burn-rate evaluation that rides it — allocates
// nothing.
func TestSampleSteadyStateAllocs(t *testing.T) {
	store := NewStore(Config{})
	var c, g float64
	h := &obs.Histogram{}
	for _, key := range []string{"a", "b", "d", "e"} {
		store.TrackCounter("ctr_"+key, func() float64 { return c })
		store.TrackGauge("g_"+key, func() float64 { return g })
	}
	store.TrackHistogram("h", h)
	engine := NewEngine(store, []Rule{{
		Name: "r", Source: SourceCounter,
		Bad: []string{"ctr_a"}, Total: []string{"ctr_b"},
		Budget: 0.1, FastWindow: 5 * time.Second, SlowWindow: 30 * time.Second,
	}})
	now := testEpoch
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		store.Sample(now)
		engine.Evaluate(now)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c += 3
		g = c
		h.Observe(int64(c))
		now = now.Add(time.Second)
		store.Sample(now)
		engine.Evaluate(now)
	})
	if allocs != 0 {
		t.Errorf("steady-state Sample+Evaluate allocates %v/op, want 0", allocs)
	}
}

// TestRingEviction pins wraparound: once more base ticks arrive than the
// ring holds, queries retain exactly the newest Slots deltas.
func TestRingEviction(t *testing.T) {
	store := NewStore(Config{Resolutions: []Resolution{{Step: time.Second, Slots: 5}}})
	var c float64
	store.TrackCounter("c", func() float64 { return c })
	now := testEpoch
	for i := 1; i <= 12; i++ {
		c += float64(i) // delta i at tick i
		now = now.Add(time.Second)
		store.Sample(now)
	}
	pts, _, ok := store.QueryScalar("c", 0, time.Minute)
	if !ok || len(pts) != 5 {
		t.Fatalf("query after wrap: %d points (ok=%v), want 5", len(pts), ok)
	}
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	if sum != 8+9+10+11+12 {
		t.Errorf("retained sum after wrap = %v, want newest 5 deltas (50)", sum)
	}
}
