package history

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"retrolock/internal/obs"
)

// The burn-rate alert engine: multi-window SLO alerting over the store's
// retained series, in the SRE shape — an alert fires when the error budget
// is burning fast over BOTH a fast and a slow window, so a one-tick blip
// (fast window only) and a long-ago incident still draining the slow
// window (slow window only) both stay quiet. Firing is immediate once both
// windows agree; clearing is hysteretic (ClearAfter consecutive calm
// evaluations below clearFraction of the threshold), so an alert does not
// flap while a signal bounces around its budget.

// Source selects how a rule's series reduce over a window.
type Source int

const (
	// SourceCounter reduces bad/total as windowed delta sums — e.g. dropped
	// datagrams per ingested datagram.
	SourceCounter Source = iota
	// SourceGauge reduces bad/total as windowed means of last-values — e.g.
	// the fraction of time a state gauge sat above a threshold. An empty
	// Total means a constant 1 (pure time fraction).
	SourceGauge
)

// Rule is one burn-rate alert definition over tracked series.
type Rule struct {
	// Name labels the alert everywhere (series, incidents, tracer).
	Name string
	// Source selects the window reduction.
	Source Source
	// Bad and Total name tracked series; multiple entries are summed.
	// Total empty with SourceGauge grades Bad as a fraction of time.
	Bad   []string
	Total []string
	// BadMap transforms each bad slot value before reduction (SourceGauge
	// only) — e.g. collapsing a health-state gauge to 0/1 badness. Nil is
	// identity.
	BadMap func(float64) float64
	// Budget is the allowed bad fraction (the error budget), e.g. 0.02.
	Budget float64
	// FastWindow / SlowWindow are the paired burn windows (e.g. 1 m / 10 m).
	FastWindow time.Duration
	SlowWindow time.Duration
	// Threshold is the burn-rate multiple at which both windows must burn
	// to fire (default 4): burn = (bad/total)/Budget.
	Threshold float64
	// ClearAfter is how many consecutive evaluations both burns must hold
	// below clearFraction × Threshold before the alert resolves (default 3).
	ClearAfter int
	// MinCoverage abstains (no transition either way) until the store has
	// covered this fraction of the fast window (default 0.5).
	MinCoverage float64
}

// clearFraction scales a rule's Threshold for its clearing bound.
const clearFraction = 0.9

func (r Rule) withDefaults() Rule {
	if r.Budget <= 0 {
		r.Budget = 0.01
	}
	if r.FastWindow <= 0 {
		r.FastWindow = time.Minute
	}
	if r.SlowWindow <= r.FastWindow {
		r.SlowWindow = 5 * r.FastWindow
	}
	if r.Threshold <= 0 {
		r.Threshold = 4
	}
	if r.ClearAfter <= 0 {
		r.ClearAfter = 3
	}
	if r.MinCoverage <= 0 || r.MinCoverage > 1 {
		r.MinCoverage = 0.5
	}
	return r
}

// Event is one alert transition, delivered to Engine.OnTransition and the
// incident log.
type Event struct {
	Rule     int     `json:"-"`
	Name     string  `json:"name"`
	Firing   bool    `json:"firing"`
	AtNs     int64   `json:"at_unix_ns"`
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// AlertStatus is one rule's live state, served at /alerts.
type AlertStatus struct {
	Name      string  `json:"name"`
	Firing    bool    `json:"firing"`
	SinceNs   int64   `json:"since_unix_ns,omitempty"`
	BurnFast  float64 `json:"burn_fast"`
	BurnSlow  float64 `json:"burn_slow"`
	Threshold float64 `json:"threshold"`
	Budget    float64 `json:"budget"`
	Fast      string  `json:"fast_window"`
	Slow      string  `json:"slow_window"`
	Fired     int64   `json:"fired_total"`
	Cleared   int64   `json:"cleared_total"`
}

type alertState struct {
	rule        Rule
	firing      bool
	sinceNs     int64
	burnFast    float64
	burnSlow    float64
	clearStreak int
	fired       int64
	cleared     int64
}

// Engine evaluates rules against a Store. Drive Evaluate from the same
// single goroutine as Store.Sample (typically right after it); reads are
// safe from anywhere.
type Engine struct {
	store *Store

	tracer *obs.Tracer
	site   int
	// OnTransition observes every fire/clear, called outside the engine's
	// lock from the Evaluate goroutine. Set before the first Evaluate.
	OnTransition func(Event)

	mu     sync.Mutex
	rules  []alertState
	firing int
}

// NewEngine builds an engine over store with the given rules (defaults
// applied per rule).
func NewEngine(store *Store, rules []Rule) *Engine {
	e := &Engine{store: store}
	for _, r := range rules {
		e.rules = append(e.rules, alertState{rule: r.withDefaults()})
	}
	return e
}

// SetTracer routes transitions into a tracer as EvAlert events attributed
// to site (Arg: rule index<<1 | firing).
func (e *Engine) SetTracer(site int, t *obs.Tracer) {
	e.tracer = t
	e.site = site
}

// windowBurn reduces one rule over one window into a burn-rate multiple.
func (e *Engine) windowBurn(r *Rule, w time.Duration) (burn float64, covered time.Duration) {
	var bad, total float64
	switch r.Source {
	case SourceGauge:
		for _, k := range r.Bad {
			v, cov, ok := e.store.WindowGaugeMean(k, w, r.BadMap)
			if !ok {
				continue
			}
			bad += v
			if cov > covered {
				covered = cov
			}
		}
		if len(r.Total) == 0 {
			total = 1
		} else {
			for _, k := range r.Total {
				v, _, ok := e.store.WindowGaugeMean(k, w, nil)
				if ok {
					total += v
				}
			}
		}
	default: // SourceCounter
		for _, k := range r.Bad {
			v, cov, ok := e.store.WindowCounterSum(k, w)
			if !ok {
				continue
			}
			bad += v
			if cov > covered {
				covered = cov
			}
		}
		for _, k := range r.Total {
			v, _, ok := e.store.WindowCounterSum(k, w)
			if ok {
				total += v
			}
		}
	}
	if total <= 0 {
		return 0, covered
	}
	return (bad / total) / r.Budget, covered
}

// Evaluate closes one alerting window over every rule and emits transitions.
// Call after each Store.Sample, from that same goroutine. The store's locks
// are taken per reduction, never while the engine's own lock is held, so a
// concurrent scrape of the alert series cannot deadlock a sample tick.
func (e *Engine) Evaluate(now time.Time) {
	nowNs := now.UnixNano()
	// Phase 1, lock-free reads of rule definitions: rules are fixed after
	// NewEngine, only their state fields mutate under the lock.
	type verdict struct {
		burnFast, burnSlow float64
		graded             bool
	}
	var scratch [16]verdict
	verdicts := scratch[:0]
	e.mu.Lock()
	n := len(e.rules)
	e.mu.Unlock()
	for i := 0; i < n; i++ {
		r := &e.rules[i].rule
		bf, covered := e.windowBurn(r, r.FastWindow)
		bs, _ := e.windowBurn(r, r.SlowWindow)
		verdicts = append(verdicts, verdict{
			burnFast: bf,
			burnSlow: bs,
			graded:   covered >= time.Duration(float64(r.FastWindow)*r.MinCoverage),
		})
	}

	// Phase 2: apply transitions under the lock, collect events.
	var evScratch [16]Event
	events := evScratch[:0]
	e.mu.Lock()
	for i := range e.rules {
		st := &e.rules[i]
		v := verdicts[i]
		st.burnFast, st.burnSlow = v.burnFast, v.burnSlow
		if !v.graded {
			continue
		}
		t := st.rule.Threshold
		switch {
		case !st.firing && v.burnFast >= t && v.burnSlow >= t:
			st.firing = true
			st.sinceNs = nowNs
			st.clearStreak = 0
			st.fired++
			e.firing++
			events = append(events, Event{Rule: i, Name: st.rule.Name, Firing: true,
				AtNs: nowNs, BurnFast: v.burnFast, BurnSlow: v.burnSlow})
		case st.firing:
			calm := t * clearFraction
			if v.burnFast < calm && v.burnSlow < calm {
				st.clearStreak++
				if st.clearStreak >= st.rule.ClearAfter {
					st.firing = false
					st.sinceNs = 0
					st.clearStreak = 0
					st.cleared++
					e.firing--
					events = append(events, Event{Rule: i, Name: st.rule.Name, Firing: false,
						AtNs: nowNs, BurnFast: v.burnFast, BurnSlow: v.burnSlow})
				}
			} else {
				st.clearStreak = 0
			}
		}
	}
	tracer, site, onTrans := e.tracer, e.site, e.OnTransition
	e.mu.Unlock()

	for _, ev := range events {
		arg := int64(ev.Rule) << 1
		if ev.Firing {
			arg |= 1
		}
		tracer.Record(obs.EvAlert, site, -1, now, arg)
		if onTrans != nil {
			onTrans(ev)
		}
	}
}

// Alerts returns every rule's live status in rule order.
func (e *Engine) Alerts() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.rules))
	for i := range e.rules {
		st := &e.rules[i]
		out = append(out, AlertStatus{
			Name:      st.rule.Name,
			Firing:    st.firing,
			SinceNs:   st.sinceNs,
			BurnFast:  st.burnFast,
			BurnSlow:  st.burnSlow,
			Threshold: st.rule.Threshold,
			Budget:    st.rule.Budget,
			Fast:      st.rule.FastWindow.String(),
			Slow:      st.rule.SlowWindow.String(),
			Fired:     st.fired,
			Cleared:   st.cleared,
		})
	}
	return out
}

// Firing returns how many rules currently fire.
func (e *Engine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firing
}

// Alert metric names.
const (
	MetricAlertFiring   = "retrolock_alert_firing"
	MetricAlertBurnFast = "retrolock_alert_burn_fast"
	MetricAlertBurnSlow = "retrolock_alert_burn_slow"
	MetricAlertFired    = "retrolock_alert_fired_total"
	MetricAlertCleared  = "retrolock_alert_cleared_total"
)

// Register publishes per-rule retrolock_alert_* series on r. Call before
// Store.Attach so the alert series are themselves retained.
func (e *Engine) Register(r *obs.Registry) {
	read := func(i int, f func(*alertState) float64) func() float64 {
		return func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return f(&e.rules[i])
		}
	}
	for i := range e.rules {
		l := obs.Labels{"alert": e.rules[i].rule.Name}
		r.GaugeFunc(MetricAlertFiring, l, "1 while the burn-rate alert fires",
			read(i, func(st *alertState) float64 {
				if st.firing {
					return 1
				}
				return 0
			}))
		r.GaugeFunc(MetricAlertBurnFast, l, "error-budget burn-rate multiple over the fast window",
			read(i, func(st *alertState) float64 { return st.burnFast }))
		r.GaugeFunc(MetricAlertBurnSlow, l, "error-budget burn-rate multiple over the slow window",
			read(i, func(st *alertState) float64 { return st.burnSlow }))
		r.CounterFunc(MetricAlertFired, l, "times the alert fired",
			read(i, func(st *alertState) float64 { return float64(st.fired) }))
		r.CounterFunc(MetricAlertCleared, l, "times the alert cleared",
			read(i, func(st *alertState) float64 { return float64(st.cleared) }))
	}
}

// Handler serves the live alert statuses as JSON at /alerts.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		_ = json.NewEncoder(w).Encode(struct {
			Firing int           `json:"firing"`
			Alerts []AlertStatus `json:"alerts"`
		}{e.Firing(), e.Alerts()})
	})
}

// BadAbove returns a BadMap collapsing a gauge to 0/1 badness at >= bound —
// the usual transform for state gauges (health, verdict counts).
func BadAbove(bound float64) func(float64) float64 {
	return func(v float64) float64 {
		if v >= bound {
			return 1
		}
		return 0
	}
}
