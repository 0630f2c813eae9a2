package obs

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuantilePropertyAgainstSortedSamples is the property-based check of
// Histogram.Quantile: for random sample sets and random quantiles, the
// reported value must equal the bucket bound of the exact order-statistic,
// and therefore bracket it within one power-of-two bucket width:
//
//	x <= Quantile(q) <= 2x-1   where x = sorted[ceilish(q*n)-1]
func TestQuantilePropertyAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		h := &Histogram{}
		samples := make([]int64, n)
		for i := range samples {
			// Spread over decades, like real latency distributions; bias
			// some trials toward small values to exercise low buckets.
			switch rng.Intn(3) {
			case 0:
				samples[i] = rng.Int63n(64)
			case 1:
				samples[i] = rng.Int63n(1 << 20)
			default:
				samples[i] = rng.Int63n(1 << 40)
			}
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			need := int64(q * float64(n))
			if need < 1 {
				need = 1
			}
			x := samples[need-1]
			got := h.Quantile(q)
			want := BucketBound(bits.Len64(uint64(x)))
			if got != want {
				t.Fatalf("trial %d n=%d q=%g: Quantile=%d, want bucket bound %d of exact %d",
					trial, n, q, got, want, x)
			}
			// Error bounded by the bucket width: x <= got <= 2x-1 (for x>0).
			if uint64(x) > got {
				t.Fatalf("trial %d q=%g: Quantile=%d below exact order statistic %d", trial, q, got, x)
			}
			if x > 0 && got > uint64(2*x-1) {
				t.Fatalf("trial %d q=%g: Quantile=%d beyond 2x-1 of exact %d", trial, q, got, x)
			}
			if x == 0 && got != 0 {
				t.Fatalf("trial %d q=%g: Quantile=%d for exact 0", trial, q, got)
			}
		}
	}
}

// TestQuantileOfBucketsWindowedDelta checks the windowed (delta) form the
// health engine uses: quantiles of a bucket difference must match a fresh
// histogram fed only the window's samples.
func TestQuantileOfBucketsWindowedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(rng.Int63n(1 << 30))
	}
	base := h.Buckets()
	baseCount := h.Count()

	window := &Histogram{}
	for i := 0; i < 300; i++ {
		v := rng.Int63n(1 << 35)
		h.Observe(v)
		window.Observe(v)
	}
	cur := h.Buckets()
	var delta [histBuckets]int64
	for i := range cur {
		delta[i] = cur[i] - base[i]
	}
	deltaCount := h.Count() - baseCount
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := QuantileOfBuckets(delta, deltaCount, q), window.Quantile(q); got != want {
			t.Fatalf("q=%g: windowed delta quantile %d != fresh histogram %d", q, got, want)
		}
	}
	if QuantileOfBuckets(delta, 0, 0.5) != 0 {
		t.Fatal("empty window must report 0")
	}
}

// TestRegistrySnapshotWhileWriting hammers a registry's read paths from
// several goroutines while writers keep observing — the -race proof that
// Snapshot/WritePrometheus/Quantile may be polled live.
func TestRegistrySnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	hist := r.NewHistogram("retrolock_test_latency_ns", SiteLabels(0), "test")
	var ctr atomic.Int64
	r.CounterFunc("retrolock_test_events_total", SiteLabels(0), "test", func() float64 { return float64(ctr.Load()) })
	health := NewHealth(HealthConfig{}, HealthSources{RTT: hist})
	health.Register(r, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hist.Observe(rng.Int63n(1 << 32))
				ctr.Add(1)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() { // health evaluations race the writers too
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			health.Evaluate(time.Unix(int64(i), 0))
			_ = health.Signals()
		}
	}()

	deadline := time.After(200 * time.Millisecond)
	var discard discardWriter
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
		}
		snap := r.Snapshot()
		if snap[Key("retrolock_test_latency_ns", SiteLabels(0))+"_count"] < 0 {
			t.Fatal("negative count")
		}
		_ = r.WritePrometheus(&discard)
		_ = hist.Quantile(0.99)
		_ = hist.Buckets()
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
