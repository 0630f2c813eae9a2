package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// fillWindow pushes n observations of v into h.
func fillWindow(h *Histogram, n int, v int64) {
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

func testHealth() (*Health, *Histogram, *Histogram, *Histogram) {
	ft, skew, rtt := &Histogram{}, &Histogram{}, &Histogram{}
	h := NewHealth(HealthConfig{}, HealthSources{
		FrameTime: ft, Skew: skew, RTT: rtt,
	})
	return h, ft, skew, rtt
}

func TestHealthRTTRampDegradesThenRecovers(t *testing.T) {
	h, _, _, rtt := testHealth()
	now := time.Unix(0, 0)

	fillWindow(rtt, 20, int64(40*time.Millisecond))
	if got := h.Evaluate(now); got != Healthy {
		t.Fatalf("state after 40ms RTT window = %v, want healthy", got)
	}

	// Past the degraded band (112 ms) but below the cliff. Power-of-two
	// buckets report the quantile as an upper bound (2^k-1), so drive the
	// signal with a value whose bucket bound sits inside the band:
	// 120 ms -> bucket bound ~134.2 ms.
	fillWindow(rtt, 20, int64(120*time.Millisecond))
	if got := h.Evaluate(now); got != Degraded {
		t.Fatalf("state after 120ms RTT window = %v, want degraded", got)
	}

	// Past the 140 ms cliff.
	fillWindow(rtt, 20, int64(200*time.Millisecond))
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatalf("state after 200ms RTT window = %v, want infeasible", got)
	}

	// Healing: fewer than recoverAfter good windows must NOT recover
	// (hysteresis)...
	for i := 1; i < recoverAfter; i++ {
		fillWindow(rtt, 20, int64(40*time.Millisecond))
		if got := h.Evaluate(now); got != Infeasible {
			t.Fatalf("state after %d good windows = %v, want still infeasible", i, got)
		}
	}
	// ...the recoverAfter-th consecutive good window does.
	fillWindow(rtt, 20, int64(40*time.Millisecond))
	if got := h.Evaluate(now); got != Healthy {
		t.Fatalf("state after %d good windows = %v, want healthy", recoverAfter, got)
	}
	if tr := h.Transitions(); tr != 3 {
		t.Fatalf("transitions = %d, want 3 (healthy->degraded->infeasible->healthy)", tr)
	}
}

func TestHealthRecoveryStreakResetsOnBadWindow(t *testing.T) {
	h, _, _, rtt := testHealth()
	now := time.Unix(0, 0)
	fillWindow(rtt, 20, int64(200*time.Millisecond))
	h.Evaluate(now) // infeasible
	// All but the last good window of a recovery.
	for i := 1; i < recoverAfter; i++ {
		fillWindow(rtt, 20, int64(40*time.Millisecond))
		h.Evaluate(now)
	}
	fillWindow(rtt, 20, int64(200*time.Millisecond))
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatalf("state = %v, want infeasible", got)
	}
	// The streak must restart: one more good window is not enough.
	fillWindow(rtt, 20, int64(40*time.Millisecond))
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatal("streak did not reset across the bad window")
	}
}

func TestHealthWindowsAreDeltas(t *testing.T) {
	// A long healthy history must not dilute a suddenly bad window: the
	// engine grades the delta since the last evaluation, not the lifetime
	// distribution.
	h, _, _, rtt := testHealth()
	now := time.Unix(0, 0)
	fillWindow(rtt, 10000, int64(20*time.Millisecond))
	h.Evaluate(now)
	fillWindow(rtt, 20, int64(200*time.Millisecond))
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatalf("state = %v: lifetime history diluted the bad window", got)
	}
}

func TestHealthSkewAndFrameTimeSignals(t *testing.T) {
	h, ft, skew, _ := testHealth()
	now := time.Unix(0, 0)

	// Skew p90 past 30 ms -> infeasible.
	fillWindow(skew, 20, int64(40*time.Millisecond))
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatalf("skew signal: state = %v, want infeasible", got)
	}

	h2 := NewHealth(HealthConfig{}, HealthSources{FrameTime: ft})
	// Frame time mean at ~23ms (target 16.67 + 5ms margin = 21.7ms
	// degraded, +11ms = 27.7ms infeasible).
	fillWindow(ft, 20, int64(23*time.Millisecond))
	if got := h2.Evaluate(now); got != Degraded {
		t.Fatalf("frame-time signal: state = %v, want degraded", got)
	}
}

func TestHealthRetransmitRateSignal(t *testing.T) {
	var retrans, frames int64
	h := NewHealth(HealthConfig{}, HealthSources{
		Retransmits: func() int64 { return retrans },
		Frames:      func() int64 { return frames },
	})
	now := time.Unix(0, 0)
	frames, retrans = 600, 0
	if got := h.Evaluate(now); got != Healthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	// 2 retransmits per frame over the next window.
	frames, retrans = 1200, 1200
	if got := h.Evaluate(now); got != Infeasible {
		t.Fatalf("state = %v, want infeasible at 2 retrans/frame", got)
	}
}

func TestHealthSmallWindowAbstains(t *testing.T) {
	h, _, _, rtt := testHealth()
	now := time.Unix(0, 0)
	// Below minSamples (8): the terrible RTT must not grade.
	fillWindow(rtt, 3, int64(500*time.Millisecond))
	if got := h.Evaluate(now); got != Healthy {
		t.Fatalf("state = %v: a %d-sample window should abstain", got, 3)
	}
}

func TestHealthTracerAndCallback(t *testing.T) {
	h, _, _, rtt := testHealth()
	tr := NewTracer(16, time.Unix(0, 0))
	h.SetTracer(1, tr)
	var transitions [][2]HealthState
	h.OnTransition = func(from, to HealthState) { transitions = append(transitions, [2]HealthState{from, to}) }

	fillWindow(rtt, 20, int64(200*time.Millisecond))
	h.Evaluate(time.Unix(100, 0))

	events := tr.Snapshot()
	if len(events) != 1 || events[0].Kind != EvHealth {
		t.Fatalf("tracer events = %+v, want one EvHealth", events)
	}
	if from, to := HealthState(events[0].Arg>>8), HealthState(events[0].Arg&0xFF); from != Healthy || to != Infeasible {
		t.Fatalf("EvHealth arg decodes to %v->%v, want healthy->infeasible", from, to)
	}
	if len(transitions) != 1 || transitions[0] != [2]HealthState{Healthy, Infeasible} {
		t.Fatalf("OnTransition saw %v", transitions)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	r := NewRegistry()
	mux := NewMux(r)

	// No engine attached: 404.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 404 {
		t.Fatalf("healthz without engine = %d, want 404", rec.Code)
	}

	rtt := &Histogram{}
	h := NewHealth(HealthConfig{}, HealthSources{RTT: rtt})
	h.Register(r, 0)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz healthy = %d, want 200", rec.Code)
	}
	var body struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.State != "healthy" {
		t.Fatalf("healthz body %q (err %v), want state healthy", rec.Body.String(), err)
	}

	fillWindow(rtt, 20, int64(300*time.Millisecond))
	h.Evaluate(time.Unix(0, 0))
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz infeasible = %d, want 503", rec.Code)
	}

	// The canonical metrics exist and carry the verdict.
	snap := r.Snapshot()
	if got := snap[Key("retrolock_health_state", SiteLabels(0))]; got != float64(Infeasible) {
		t.Fatalf("retrolock_health_state = %v, want %d", got, Infeasible)
	}
	if got := snap[Key("retrolock_health_transitions", SiteLabels(0))]; got != 1 {
		t.Fatalf("retrolock_health_transitions = %v, want 1", got)
	}
}

// TestHealthzHeaders pins the /healthz header contract: explicit JSON
// Content-Type and Cache-Control: no-store, so no intermediary keeps
// serving a stale verdict.
func TestHealthzHeaders(t *testing.T) {
	r := NewRegistry()
	h := NewHealth(HealthConfig{}, HealthSources{RTT: &Histogram{}})
	h.Register(r, 0)
	mux := NewMux(r)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
}
