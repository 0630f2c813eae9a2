package chaos_test

import (
	"reflect"
	"testing"
	"time"

	"retrolock/internal/chaos"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
)

// rttRamp is the ISSUE's acceptance scenario: a clean warm-up, then the link
// RTT ramps to ~100 ms (inside the paper's warning band), then past the
// ~140 ms feasibility cliff to ~200 ms, then heals. The health engine runs
// on site 0 every 2 s of frames and grades the RTT signal alone: under a
// 200 ms RTT the skew and frame-time signals would also (correctly) trip,
// but then the flip frames would depend on which signal crosses first.
func rttRamp(seed int64, frames int) chaos.Scenario {
	return chaos.Scenario{
		Name:        "rtt-ramp",
		Seed:        seed,
		Frames:      frames,
		HealthEvery: 120, // one window per 2 s of frames
		Phases: []chaos.Phase{
			// ~20 ms RTT: median bucket bound 33.5 ms, well under the
			// 112 ms warning band -> healthy.
			{Name: "clean", Duration: 10 * time.Second,
				AB:           &netem.Config{Delay: 10 * time.Millisecond},
				BA:           &netem.Config{Delay: 10 * time.Millisecond},
				WantProgress: true},
			// ~100 ms RTT: bucket bound 134.2 ms, inside [112, 140) ->
			// degraded. One-way 50 ms stays under the 100 ms local-lag
			// budget, so pacing is unharmed.
			{Name: "rtt-100", Duration: 10 * time.Second,
				AB:           &netem.Config{Delay: 50 * time.Millisecond},
				BA:           &netem.Config{Delay: 50 * time.Millisecond},
				WantProgress: true},
			// ~200 ms RTT: bucket bound 268 ms, past the 140 ms cliff ->
			// infeasible.
			{Name: "rtt-200", Duration: 10 * time.Second,
				AB:           &netem.Config{Delay: 100 * time.Millisecond},
				BA:           &netem.Config{Delay: 100 * time.Millisecond},
				WantProgress: true},
			// Healed tail: three (recoverAfter) consecutive healthy windows
			// must walk the verdict back to healthy.
			{Name: "heal",
				AB:           &netem.Config{Delay: 10 * time.Millisecond},
				BA:           &netem.Config{Delay: 10 * time.Millisecond},
				WantProgress: true},
		},
	}
}

// TestHealthRTTRampE2E drives the RTT ramp end to end and checks the health
// verdict flips healthy -> degraded -> infeasible at the expected points of
// the ramp, recovers after the heal, and that the whole trajectory is
// bit-identical across runs (virtual time makes the flip frames exact).
func TestHealthRTTRampE2E(t *testing.T) {
	const frames = 3600 // 60 s at 60 fps: 10 s per fault phase + 30 s heal
	sc := rttRamp(7, frames)

	r, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify failed: %v", err)
	}

	want := []struct{ from, to obs.HealthState }{
		{obs.Healthy, obs.Degraded},
		{obs.Degraded, obs.Infeasible},
		{obs.Infeasible, obs.Healthy},
	}
	if len(r.Health) != len(want) {
		t.Fatalf("health transitions = %+v, want exactly %d (healthy->degraded->infeasible->healthy)",
			r.Health, len(want))
	}
	for i, w := range want {
		if r.Health[i].From != w.from || r.Health[i].To != w.to {
			t.Fatalf("transition %d = %v->%v at frame %d, want %v->%v",
				i, r.Health[i].From, r.Health[i].To, r.Health[i].Frame, w.from, w.to)
		}
	}

	// The flips must land on evaluation frames inside the right phases.
	// Phases start at frames ~600 / ~1200 / ~1800; each flip needs one
	// full bad window after the boundary, and recovery needs three
	// healthy windows after the heal.
	checkFrame := func(i int, lo, hi int) {
		f := r.Health[i].Frame
		if f%sc.HealthEvery != 0 {
			t.Errorf("transition %d at frame %d, not on the %d-frame evaluation cadence",
				i, f, sc.HealthEvery)
		}
		if f < lo || f > hi {
			t.Errorf("transition %d at frame %d, want within [%d, %d]", i, f, lo, hi)
		}
	}
	checkFrame(0, 600, 960)   // degraded: shortly into rtt-100
	checkFrame(1, 1200, 1560) // infeasible: shortly into rtt-200
	checkFrame(2, 1800, 3000) // healthy: heal + 3 recovery windows

	if r.HealthFinal != obs.Healthy {
		t.Fatalf("final health = %v, want healthy (signals %+v)", r.HealthFinal, r.HealthWindow)
	}
	if r.HealthWindow.Window == 0 || r.HealthWindow.RTTp50 == 0 {
		t.Fatalf("final health window looks empty: %+v", r.HealthWindow)
	}

	// The journals must have closed real cross-site latency observations on
	// both sites — the spans ran over the genuine transport stack.
	for site, j := range r.Journals {
		if j == nil || j.Cross == nil || j.Cross.Count() == 0 {
			t.Fatalf("site %d journal recorded no cross-site latency", site)
		}
		if j.Local.Count() == 0 || j.Skew.Count() == 0 {
			t.Fatalf("site %d journal missing local/skew observations", site)
		}
	}

	// Bit-identical re-run: same seed, same flip frames, same signals.
	r2, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("re-run failed: %v", err)
	}
	if !reflect.DeepEqual(r.Health, r2.Health) {
		t.Fatalf("health trajectory not deterministic:\n first %+v\nsecond %+v", r.Health, r2.Health)
	}
	if !reflect.DeepEqual(stripLive(r), stripLive(r2)) {
		t.Fatalf("reports differ between identical runs")
	}
}
