package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// The health SLO engine: a small state machine that renders the paper's
// offline feasibility judgment — 60 FPS with sub-10 ms skew holds up to
// roughly 140 ms RTT — as a live verdict over windowed metric snapshots.
//
// Each Evaluate call closes one window: it diffs the attached histograms and
// counters against the previous evaluation, computes windowed quantiles and
// rates, grades every signal (RTT median, skew quantile, frame-time mean,
// ARQ retransmit rate) and takes the worst grade as the window's verdict.
// Degradation is immediate — the engine exists to catch the cliff before
// players feel it — while recovery is hysteretic: the verdict must hold
// strictly better than the current state for recoverAfter consecutive
// windows before the state steps down, so a session bouncing around the
// threshold does not flap.

// HealthState is the engine's verdict.
type HealthState int32

const (
	// Healthy: every signal is inside the paper's feasibility region.
	Healthy HealthState = iota
	// Degraded: at least one signal is approaching its infeasibility
	// threshold — the session still runs at full speed but has little
	// headroom left.
	Degraded
	// Infeasible: at least one signal crossed the threshold beyond which
	// the paper's evaluation shows lockstep cannot hold 60 FPS with
	// sub-10 ms skew.
	Infeasible
)

// String returns the verdict's wire/JSON name.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// HealthSources are the live series the engine grades. Any field may be nil;
// a nil source simply contributes no signal.
type HealthSources struct {
	// FrameTime is the per-frame wall-duration histogram (ns).
	FrameTime *Histogram
	// Skew is the cross-site execution-skew histogram (ns).
	Skew *Histogram
	// RTT is the round-trip-time histogram (ns).
	RTT *Histogram
	// Retransmits returns the lifetime ARQ retransmission count.
	Retransmits func() int64
	// Frames returns the lifetime executed-frame count (normalizes the
	// retransmit rate).
	Frames func() int64
}

// HealthConfig sets the grading thresholds. The zero value selects the
// paper-derived defaults (see withDefaults).
type HealthConfig struct {
	// RTTInfeasible is the windowed median RTT at or above which the
	// session is infeasible (default 140 ms — the paper's cliff);
	// RTTDegraded marks the warning band below it (default 0.8x = 112 ms).
	RTTInfeasible time.Duration
	RTTDegraded   time.Duration

	// FrameTarget is the nominal frame duration (default 16.67 ms);
	// the windowed mean frame time grades degraded/infeasible at
	// FrameTarget+FrameDegradedMargin / +FrameInfeasibleMargin (defaults
	// 5 ms / 11 ms: one lost frame of slack vs visibly broken pacing).
	FrameTarget           time.Duration
	FrameDegradedMargin   time.Duration
	FrameInfeasibleMargin time.Duration
}

const (
	// skewQuantile is which quantile of the skew histogram is graded.
	skewQuantile = 0.9
	// skewInfeasible grades the windowed skewQuantile of the skew
	// histogram: 35 ms, just above the 33.6 ms bucket bound, so a quantile
	// in the (16.8, 33.6] bucket reads as a warning, not a verdict;
	// infeasible starts at the 67.1 ms bucket. skewDegraded is the warning
	// band: 10 ms, the paper's playability bound; with bucket
	// quantization, healthy requires p-quantile <= 8.4 ms.
	skewInfeasible = 35 * time.Millisecond
	skewDegraded   = 10 * time.Millisecond
	// retransDegraded and retransInfeasible grade the windowed ARQ
	// retransmissions-per-frame rate.
	retransDegraded   = 0.2
	retransInfeasible = 1.0
	// recoverAfter is how many consecutive windows must grade strictly
	// better than the current state before it improves.
	recoverAfter = 3
	// minSamples is the least observations a histogram window needs before
	// its signal is graded; smaller windows abstain.
	minSamples = 8
)

func (c HealthConfig) withDefaults() HealthConfig {
	if c.RTTInfeasible <= 0 {
		c.RTTInfeasible = 140 * time.Millisecond
	}
	if c.RTTDegraded <= 0 {
		c.RTTDegraded = c.RTTInfeasible * 8 / 10
	}
	if c.FrameTarget <= 0 {
		c.FrameTarget = 16670 * time.Microsecond
	}
	if c.FrameDegradedMargin <= 0 {
		c.FrameDegradedMargin = 5 * time.Millisecond
	}
	if c.FrameInfeasibleMargin <= 0 {
		c.FrameInfeasibleMargin = 11 * time.Millisecond
	}
	return c
}

// HealthSignals is one evaluated window, exposed for /healthz and reports.
type HealthSignals struct {
	State HealthState `json:"-"`
	// StateName mirrors State for JSON readers.
	StateName string `json:"state"`
	// Window is how many evaluations have run.
	Window int64 `json:"window"`
	// RTTp50 is the windowed median RTT in ns (0: no samples).
	RTTp50 int64 `json:"rtt_p50_ns"`
	// SkewQ is the windowed skew quantile in ns (0: no samples).
	SkewQ int64 `json:"skew_q_ns"`
	// FrameMean is the windowed mean frame time in ns (0: no samples).
	FrameMean int64 `json:"frame_mean_ns"`
	// RetransPerFrame is the windowed ARQ retransmit rate.
	RetransPerFrame float64 `json:"retrans_per_frame"`
	// Transitions counts state changes since the engine started.
	Transitions int64 `json:"transitions"`
}

// Health is the SLO engine. Build with NewHealth; drive with Evaluate (any
// single goroutine — the frame loop, a chaos phase boundary, a ticker); read
// State/Signals from anywhere.
type Health struct {
	cfg HealthConfig
	src HealthSources

	state       atomic.Int32
	transitions atomic.Int64

	// Optional transition sinks.
	tracer *Tracer
	site   int
	// OnTransition, when set, observes every state change (called inside
	// Evaluate, so it must not call back into the engine). Set before the
	// first Evaluate.
	OnTransition func(from, to HealthState)

	mu         sync.Mutex
	windows    int64
	goodStreak int
	last       HealthSignals
	// Previous-evaluation baselines for windowed deltas.
	prevFrame  histBase
	prevSkew   histBase
	prevRTT    histBase
	prevRet    int64
	prevFrames int64
}

type histBase struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64
}

// delta closes one window over h: it returns the bucket/count/sum deltas
// since the previous window and advances the baseline.
func (b *histBase) delta(h *Histogram) (buckets [histBuckets]int64, count, sum int64) {
	if h == nil {
		return
	}
	cur := h.Buckets()
	curCount, curSum := h.Count(), h.Sum()
	for i := range cur {
		buckets[i] = cur[i] - b.buckets[i]
	}
	count = curCount - b.count
	sum = curSum - b.sum
	b.buckets, b.count, b.sum = cur, curCount, curSum
	return
}

// NewHealth builds an engine grading src under cfg (zero value: defaults).
func NewHealth(cfg HealthConfig, src HealthSources) *Health {
	return &Health{cfg: cfg.withDefaults(), src: src}
}

// SetTracer routes state transitions into a tracer as EvHealth events
// (Arg encodes from<<8 | to) attributed to site.
func (h *Health) SetTracer(site int, t *Tracer) {
	h.tracer = t
	h.site = site
}

// State returns the current verdict. Safe from any goroutine.
func (h *Health) State() HealthState {
	if h == nil {
		return Healthy
	}
	return HealthState(h.state.Load())
}

// Transitions returns how many state changes have occurred.
func (h *Health) Transitions() int64 {
	if h == nil {
		return 0
	}
	return h.transitions.Load()
}

// Signals returns the most recently evaluated window.
func (h *Health) Signals() HealthSignals {
	if h == nil {
		return HealthSignals{StateName: Healthy.String()}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.last
	s.State = h.State()
	s.StateName = s.State.String()
	s.Transitions = h.transitions.Load()
	return s
}

// grade folds one signal's verdict into the window's worst-so-far.
func grade(worst HealthState, v int64, degraded, infeasible int64) HealthState {
	switch {
	case v >= infeasible:
		return maxState(worst, Infeasible)
	case v >= degraded:
		return maxState(worst, Degraded)
	}
	return worst
}

func maxState(a, b HealthState) HealthState {
	if b > a {
		return b
	}
	return a
}

// Evaluate closes the current window, grades it, applies hysteresis and
// returns the (possibly new) state. Call it from one goroutine at a steady
// cadence (e.g. once per second of frames); at records the transition
// instant in the tracer.
func (h *Health) Evaluate(at time.Time) HealthState {
	h.mu.Lock()
	h.windows++

	_, frameC, frameS := h.prevFrame.delta(h.src.FrameTime)
	skewB, skewC, _ := h.prevSkew.delta(h.src.Skew)
	rttB, rttC, _ := h.prevRTT.delta(h.src.RTT)

	sig := HealthSignals{Window: h.windows}
	verdict := Healthy

	if rttC >= minSamples {
		sig.RTTp50 = int64(QuantileOfBuckets(rttB, rttC, 0.5))
		verdict = grade(verdict, sig.RTTp50, int64(h.cfg.RTTDegraded), int64(h.cfg.RTTInfeasible))
	}
	if skewC >= minSamples {
		sig.SkewQ = int64(QuantileOfBuckets(skewB, skewC, skewQuantile))
		verdict = grade(verdict, sig.SkewQ, int64(skewDegraded), int64(skewInfeasible))
	}
	if frameC >= minSamples {
		sig.FrameMean = frameS / frameC
		verdict = grade(verdict, sig.FrameMean,
			int64(h.cfg.FrameTarget+h.cfg.FrameDegradedMargin),
			int64(h.cfg.FrameTarget+h.cfg.FrameInfeasibleMargin))
	}
	if h.src.Retransmits != nil && h.src.Frames != nil {
		ret, frames := h.src.Retransmits(), h.src.Frames()
		dRet, dFrames := ret-h.prevRet, frames-h.prevFrames
		h.prevRet, h.prevFrames = ret, frames
		if dFrames > 0 {
			sig.RetransPerFrame = float64(dRet) / float64(dFrames)
			switch {
			case sig.RetransPerFrame >= retransInfeasible:
				verdict = maxState(verdict, Infeasible)
			case sig.RetransPerFrame >= retransDegraded:
				verdict = maxState(verdict, Degraded)
			}
		}
	}

	// Hysteresis: degrade immediately, recover only after recoverAfter
	// consecutive strictly-better windows.
	cur := HealthState(h.state.Load())
	next := cur
	switch {
	case verdict > cur:
		next = verdict
		h.goodStreak = 0
	case verdict < cur:
		h.goodStreak++
		if h.goodStreak >= recoverAfter {
			next = verdict
			h.goodStreak = 0
		}
	default:
		h.goodStreak = 0
	}

	sig.State = next
	sig.StateName = next.String()
	if next != cur {
		h.state.Store(int32(next))
		h.transitions.Add(1)
	}
	sig.Transitions = h.transitions.Load()
	h.last = sig
	tracer, site, onTrans := h.tracer, h.site, h.OnTransition
	h.mu.Unlock()

	if next != cur {
		tracer.Record(EvHealth, site, -1, at, int64(cur)<<8|int64(next))
		if onTrans != nil {
			onTrans(cur, next)
		}
	}
	return next
}

// Register wires the engine's verdict into a registry as the canonical
// retrolock_health_state gauge (0 healthy / 1 degraded / 2 infeasible) and
// retrolock_health_transitions counter, labeled with site, and attaches the
// engine so the registry's mux can serve /healthz.
func (h *Health) Register(r *Registry, site int) {
	r.GaugeFunc("retrolock_health_state", SiteLabels(site),
		"live session-health verdict (0 healthy, 1 degraded, 2 infeasible)",
		func() float64 { return float64(h.State()) })
	r.CounterFunc("retrolock_health_transitions", SiteLabels(site),
		"health SLO state transitions since session start",
		func() float64 { return float64(h.Transitions()) })
	r.SetHealth(h)
}

// QuantileOfBuckets returns an upper bound on the q-quantile of a power-of-
// two bucket snapshot (as produced by Histogram.Buckets, or a delta of two
// snapshots — a windowed quantile). total is the observation count of the
// snapshot; 0 is returned when it is not positive.
func QuantileOfBuckets(counts [histBuckets]int64, total int64, q float64) uint64 {
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(q * float64(total))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= need {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}
