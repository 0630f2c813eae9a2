package history

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"retrolock/internal/obs"
)

// burnScenario builds a store+engine where one gauge flips bad for a
// stretch: a 0/1 badness gauge against an implicit total of 1.
func burnScenario(rule Rule) (*Store, *Engine, *float64, *time.Time) {
	store := NewStore(Config{Resolutions: []Resolution{{Step: time.Second, Slots: 60}}})
	bad := new(float64)
	store.TrackGauge("bad", func() float64 { return *bad })
	engine := NewEngine(store, []Rule{rule})
	now := new(time.Time)
	*now = testEpoch
	return store, engine, bad, now
}

func tick(store *Store, engine *Engine, now *time.Time) {
	*now = now.Add(time.Second)
	store.Sample(*now)
	engine.Evaluate(*now)
}

// TestEngineFireAndClear drives a full alert lifecycle: quiet warmup, a
// burn that trips both windows, then a recovery long enough to drain the
// slow window and satisfy the hysteresis.
func TestEngineFireAndClear(t *testing.T) {
	rule := Rule{
		Name: "r", Source: SourceGauge, Bad: []string{"bad"},
		Budget: 0.05, FastWindow: 4 * time.Second, SlowWindow: 8 * time.Second,
		Threshold: 4, ClearAfter: 2,
	}
	store, engine, bad, now := burnScenario(rule)
	var events []Event
	engine.OnTransition = func(ev Event) { events = append(events, ev) }

	for i := 0; i < 8; i++ { // quiet warmup
		tick(store, engine, now)
	}
	if len(events) != 0 || engine.Firing() != 0 {
		t.Fatalf("quiet warmup produced transitions: %+v", events)
	}

	*bad = 1
	for i := 0; i < 8; i++ { // full burn: burn rate = 1/0.05 = 20x in both windows
		tick(store, engine, now)
	}
	if len(events) != 1 || !events[0].Firing {
		t.Fatalf("burn produced events %+v, want exactly one fire", events)
	}
	if events[0].BurnFast < rule.Threshold || events[0].BurnSlow < rule.Threshold {
		t.Errorf("fire event burns %v/%v below threshold %v",
			events[0].BurnFast, events[0].BurnSlow, rule.Threshold)
	}
	if engine.Firing() != 1 {
		t.Errorf("Firing() = %d mid-incident, want 1", engine.Firing())
	}

	*bad = 0
	for i := 0; i < 20; i++ { // recovery: slow window drains, then hysteresis
		tick(store, engine, now)
	}
	if len(events) != 2 || events[1].Firing {
		t.Fatalf("recovery events %+v, want fire then clear", events)
	}
	if engine.Firing() != 0 {
		t.Errorf("Firing() = %d after clear, want 0", engine.Firing())
	}
	st := engine.Alerts()[0]
	if st.Fired != 1 || st.Cleared != 1 || st.Firing {
		t.Errorf("status after lifecycle = %+v, want fired=1 cleared=1 quiet", st)
	}
}

// TestEngineSlowWindowVetoesBlip pins the multi-window property: a blip
// shorter than the slow window needs must not fire even though the fast
// window saturates.
func TestEngineSlowWindowVetoesBlip(t *testing.T) {
	rule := Rule{
		Name: "r", Source: SourceGauge, Bad: []string{"bad"},
		Budget: 0.05, FastWindow: 2 * time.Second, SlowWindow: 20 * time.Second,
		Threshold: 10, ClearAfter: 2,
	}
	store, engine, bad, now := burnScenario(rule)
	fired := false
	engine.OnTransition = func(ev Event) { fired = fired || ev.Firing }

	for i := 0; i < 20; i++ {
		tick(store, engine, now)
	}
	// 2 bad seconds: fast burn = (2/2)/0.05 = 20 >= 10, but slow burn =
	// (2/20)/0.05 = 2 < 10.
	*bad = 1
	tick(store, engine, now)
	tick(store, engine, now)
	*bad = 0
	for i := 0; i < 5; i++ {
		tick(store, engine, now)
	}
	if fired {
		t.Error("a fast-window blip fired despite a calm slow window")
	}
}

// TestEngineMinCoverageAbstains pins the young-store rule: no transitions
// until the store covers MinCoverage of the fast window, even under a
// saturated burn from the first sample.
func TestEngineMinCoverageAbstains(t *testing.T) {
	rule := Rule{
		Name: "r", Source: SourceGauge, Bad: []string{"bad"},
		Budget: 0.05, FastWindow: 10 * time.Second, SlowWindow: 20 * time.Second,
		Threshold: 4, MinCoverage: 0.5,
	}
	store, engine, bad, now := burnScenario(rule)
	*bad = 1
	var firstFire int
	engine.OnTransition = func(ev Event) {
		if ev.Firing && firstFire == 0 {
			firstFire = int(store.Samples())
		}
	}
	for i := 0; i < 12; i++ {
		tick(store, engine, now)
	}
	if firstFire == 0 {
		t.Fatal("saturated burn never fired")
	}
	if firstFire < 5 {
		t.Errorf("fired at sample %d, want abstention until coverage >= 5s of the 10s fast window", firstFire)
	}
}

// TestEngineRegisterRetainsOwnSeries: registering the alert series before
// Store.Attach makes the firing gauge itself a retained series.
func TestEngineRegisterRetainsOwnSeries(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewStore(Config{Resolutions: []Resolution{{Step: time.Second, Slots: 60}}})
	bad := 0.0
	reg.GaugeFunc("bad", nil, "", func() float64 { return bad })
	store.TrackGauge("bad", func() float64 { return bad })
	engine := NewEngine(store, []Rule{{
		Name: "r", Source: SourceGauge, Bad: []string{"bad"},
		Budget: 0.05, FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second,
		Threshold: 4, ClearAfter: 1,
	}})
	engine.Register(reg)
	store.Attach(reg)

	now := testEpoch
	step := func() { // the base cadence, as relayd's sampler ticks
		now = now.Add(store.BaseStep())
		store.Sample(now)
		engine.Evaluate(now)
	}
	for i := 0; i < 6; i++ {
		step()
	}
	bad = 1
	for i := 0; i < 6; i++ {
		step()
	}
	key := obs.Key(MetricAlertFiring, obs.Labels{"alert": "r"})
	pts, _, ok := store.QueryScalar(key, 0, time.Minute)
	if !ok {
		t.Fatalf("alert gauge %q is not a retained series", key)
	}
	sawFiring := false
	for _, p := range pts {
		if p.Value == 1 {
			sawFiring = true
		}
	}
	if !sawFiring {
		t.Errorf("retained %q history never shows the firing state: %+v", key, pts)
	}
}

// TestAlertsHandlerHeaders pins the ops-surface contract: explicit JSON
// Content-Type and no-store caching on /alerts.
func TestAlertsHandlerHeaders(t *testing.T) {
	store := NewStore(Config{})
	engine := NewEngine(store, []Rule{{Name: "r", Bad: []string{"x"}, Total: []string{"y"}}})
	rec := httptest.NewRecorder()
	engine.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	assertOpsHeaders(t, rec, "application/json")
	var body struct {
		Firing int           `json:"firing"`
		Alerts []AlertStatus `json:"alerts"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("decode /alerts: %v", err)
	}
	if len(body.Alerts) != 1 || body.Alerts[0].Name != "r" {
		t.Errorf("/alerts body = %+v, want the one configured rule", body)
	}
}

// assertOpsHeaders checks the header contract every JSON ops surface must
// satisfy: an explicit Content-Type and Cache-Control: no-store.
func assertOpsHeaders(t *testing.T, rec *httptest.ResponseRecorder, wantType string) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
		t.Errorf("Content-Type = %q, want %q", ct, wantType)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
}
