package history

import (
	"time"

	"retrolock/internal/obs"
)

// Service bundles the usual deployment: a store retaining everything a
// registry exports, an alert engine over it, an incident log observing the
// engine, and the three HTTP surfaces mounted on the registry's mux. One
// Wire call in each daemon's obs block, one Sample call per base tick.
type Service struct {
	Store  *Store
	Engine *Engine
	Log    *Log
}

// Options configures Wire. The zero value retains with default rings, no
// alert rules.
type Options struct {
	// Store sizes the retention rings (zero value = defaults).
	Store Config
	// Rules are the burn-rate alerts to evaluate each Sample.
	Rules []Rule
	// Tracer, when set, receives EvAlert events attributed to TracerSite.
	Tracer     *obs.Tracer
	TracerSite int
	// OnTransition observes alert transitions after the incident log has
	// folded them in — the hook daemons use to trigger anomaly capture.
	OnTransition func(Event)
}

// Wire builds a Service over reg: registers the engine's retrolock_alert_*
// series first (so they are themselves retained), attaches the store to
// everything the registry exports, and mounts /history, /alerts and
// /incidents. Call after all other registration, before serving.
func Wire(reg *obs.Registry, opts Options) *Service {
	store := NewStore(opts.Store)
	engine := NewEngine(store, opts.Rules)
	log := NewLog(0) // default bound

	engine.SetTracer(opts.TracerSite, opts.Tracer)
	onTrans := opts.OnTransition
	engine.OnTransition = func(ev Event) {
		log.Observe(ev)
		if onTrans != nil {
			onTrans(ev)
		}
	}

	if len(opts.Rules) > 0 {
		engine.Register(reg)
	}
	store.Attach(reg)

	reg.Handle("/history", store.Handler())
	reg.Handle("/alerts", engine.Handler())
	reg.Handle("/incidents", log.Handler())
	return &Service{Store: store, Engine: engine, Log: log}
}

// Sample folds one base tick into the store, then closes an alerting window
// over it. Drive from one goroutine at Store.BaseStep cadence, with the
// session's own clock (virtual in soaks).
func (s *Service) Sample(now time.Time) {
	s.Store.Sample(now)
	s.Engine.Evaluate(now)
}
