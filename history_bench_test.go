// Benchmark for the history retention tick, part of make bench-hotpath's
// 0-allocs/op gate beside the sync and relay hot paths: one Store.Sample +
// Engine.Evaluate over a registry-sized series population. The tick rides
// daemon cadences (the frame loop in retroplay, the ticker in relayd), so it
// must stay allocation-free in steady state — a regression here taxes every
// hosted session once per second. Its tier-1 twin is
// TestSampleSteadyStateAllocs in internal/obs/history.
package retrolock_test

import (
	"fmt"
	"testing"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
)

// benchHistoryService builds a store+engine shaped like a daemon's: 48
// scalar series, 8 histograms, and one two-window burn-rate rule, warmed
// past the first ring wraps so Sample touches only preallocated slots.
func benchHistoryService(b testing.TB) (*history.Store, *history.Engine, []*obs.Histogram, *time.Time) {
	b.Helper()
	store := history.NewStore(history.Config{Resolutions: []history.Resolution{
		{Step: time.Second, Slots: 300},
		{Step: 10 * time.Second, Slots: 360},
		{Step: time.Minute, Slots: 480},
	}})
	var cum float64
	for i := 0; i < 24; i++ {
		store.TrackCounter(fmt.Sprintf("ctr_%d", i), func() float64 { return cum })
		store.TrackGauge(fmt.Sprintf("g_%d", i), func() float64 { return cum })
	}
	hists := make([]*obs.Histogram, 8)
	for i := range hists {
		hists[i] = &obs.Histogram{}
		store.TrackHistogram(fmt.Sprintf("h_%d", i), hists[i])
	}
	engine := history.NewEngine(store, []history.Rule{{
		Name: "bench", Source: history.SourceCounter,
		Bad: []string{"ctr_0"}, Total: []string{"ctr_1"},
		Budget: 0.01, FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
	}})
	now := new(time.Time)
	*now = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 64; i++ {
		cum += 17
		for _, h := range hists {
			h.Observe(int64(i) * 1000)
		}
		*now = now.Add(time.Second)
		store.Sample(*now)
		engine.Evaluate(*now)
	}
	_ = cum
	return store, engine, hists, now
}

// BenchmarkHistorySample is the retention tick end to end: fold one base
// sample of every tracked series into all three rings, then close one
// burn-rate evaluation window. 0 allocs/op is the acceptance criterion.
func BenchmarkHistorySample(b *testing.B) {
	store, engine, hists, now := benchHistoryService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hists[n%len(hists)].Observe(int64(n))
		*now = now.Add(time.Second)
		store.Sample(*now)
		engine.Evaluate(*now)
	}
}
