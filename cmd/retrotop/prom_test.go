package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"retrolock/internal/obs"
)

// TestParseMetricsAgainstRealRegistry feeds the parser the genuine
// exposition a retrolock registry serves, not a hand-written fixture.
func TestParseMetricsAgainstRealRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterFunc("retrolock_frame", obs.SiteLabels(0), "frames", func() float64 { return 1234 })
	h := reg.NewHistogram("retrolock_rtt_ns", obs.SiteLabels(0), "rtt")
	for i := 0; i < 100; i++ {
		h.Observe(20e6) // 20 ms -> bucket bound 33.5 ms
	}
	h.Observe(300e6) // one outlier past 268 ms

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	snap, err := scrape(http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if v, ok := snap.get("retrolock_frame", `site="0"`); !ok || v != 1234 {
		t.Fatalf("retrolock_frame = %v, %v; want 1234", v, ok)
	}
	rtt := snap.hist("retrolock_rtt_ns", `site="0"`)
	if rtt == nil {
		t.Fatal("rtt histogram not parsed")
	}
	if rtt.count != 101 {
		t.Fatalf("rtt count = %v, want 101", rtt.count)
	}
	p50 := rtt.quantile(0.5)
	if p50 < 20e6 || p50 > 64e6 {
		t.Fatalf("rtt p50 = %v, want the ~33.5ms bucket bound", p50)
	}
	if p100 := rtt.quantile(1); p100 < 268e6 {
		t.Fatalf("rtt p100 = %v, want past the outlier's bucket", p100)
	}
}

// TestQuantileSinceWindows checks per-poll windowing: the second scrape's
// quantile must reflect only the new samples.
func TestQuantileSinceWindows(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("retrolock_input_latency_ns", nil, "x")
	for i := 0; i < 50; i++ {
		h.Observe(10e6)
	}
	first := scrapeRegistry(t, reg)

	for i := 0; i < 50; i++ {
		h.Observe(200e6) // all new samples land way higher
	}
	second := scrapeRegistry(t, reg)

	lifetime := second.hist("retrolock_input_latency_ns").quantile(0.5)
	windowed := second.hist("retrolock_input_latency_ns").
		quantileSince(first.hist("retrolock_input_latency_ns"), 0.5)
	if windowed <= lifetime {
		t.Fatalf("windowed p50 %v <= lifetime p50 %v; the window should only see the new high samples",
			windowed, lifetime)
	}
	if windowed < 200e6 {
		t.Fatalf("windowed p50 = %v, want >= 200e6", windowed)
	}
}

// TestHealthzFetch exercises the /healthz fetch against a real registry with
// an attached engine.
func TestHealthzFetch(t *testing.T) {
	reg := obs.NewRegistry()
	fr := reg.NewHistogram("f", nil, "")
	for i := 0; i < 20; i++ {
		fr.Observe(int64(16 * time.Millisecond))
	}
	eng := obs.NewHealth(obs.HealthConfig{}, obs.HealthSources{FrameTime: fr})
	eng.Evaluate(time.Now())
	eng.Register(reg, 0)

	srv := httptest.NewServer(reg.HealthHandler())
	defer srv.Close()

	hz, err := fetchHealthz(http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatalf("fetchHealthz: %v", err)
	}
	if hz.State != "healthy" || hz.Window != 1 {
		t.Fatalf("healthz = %+v, want healthy window 1", hz)
	}
}

func scrapeRegistry(t *testing.T, reg *obs.Registry) *snapshot {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	snap, err := parseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parseMetrics: %v", err)
	}
	return snap
}
