// Package history is the telemetry plane's memory: a bounded, in-process
// time-series store retaining registry snapshots at multiple resolutions,
// with an SLO burn-rate alert engine and a correlated incident log on top.
//
// Every other observability layer in the repository — the obs registry, the
// health SLO engine, the relayd fleet grader — reports only the present:
// windowed deltas and instantaneous verdicts that are gone the moment the
// window slides. The paper's central question (does the session stay inside
// the ~140 ms playability envelope) is fundamentally about trends, and an
// operator running relayd at fleet scale needs "when did this start, how
// fast is the budget burning, and what else happened around then" without
// having been watching at the right second.
//
// Layout: the Store samples every tracked series on a fixed base tick
// (default 1 s) and retains the per-tick deltas in a ring per resolution —
// by default 1 s × 5 min, 10 s × 1 h and 60 s × 8 h. Downsampling is
// counter-conserving by construction: a coarse slot accumulates exactly the
// base deltas of the ticks it covers (bucket-delta merge for histograms,
// sum for counters, last-value for gauges), so the sum over any aligned
// span is identical at every resolution. Sampling in steady state touches
// only preallocated rings — no maps, no allocation — so the tick may ride
// the frame loop or a relay shard's cadence, and a virtual-clock soak
// exercises it bit-identically.
package history

import (
	"sort"
	"sync"
	"time"

	"retrolock/internal/obs"
)

// Resolution is one retention ring: Slots slots of Step each.
type Resolution struct {
	Step  time.Duration `json:"step"`
	Slots int           `json:"slots"`
}

// Span is the total time the ring covers.
func (r Resolution) Span() time.Duration { return r.Step * time.Duration(r.Slots) }

// Config sizes a Store. The zero value selects the default rings.
type Config struct {
	// Resolutions, ascending by Step. The first entry is the base: Sample
	// must be called once per base Step; every coarser Step is rounded up
	// to a multiple of it. Default: 1 s × 300, 10 s × 360, 60 s × 480.
	Resolutions []Resolution
}

func (c Config) withDefaults() Config {
	if len(c.Resolutions) == 0 {
		c.Resolutions = []Resolution{
			{Step: time.Second, Slots: 300},
			{Step: 10 * time.Second, Slots: 360},
			{Step: time.Minute, Slots: 480},
		}
	}
	if len(c.Resolutions) > 16 {
		// Sample's fresh-slot mask is a fixed array; nobody needs more rings.
		c.Resolutions = c.Resolutions[:16]
	}
	out := make([]Resolution, len(c.Resolutions))
	copy(out, c.Resolutions)
	base := out[0]
	if base.Step <= 0 {
		base.Step = time.Second
	}
	if base.Slots <= 0 {
		base.Slots = 300
	}
	out[0] = base
	for i := 1; i < len(out); i++ {
		if out[i].Step < base.Step {
			out[i].Step = base.Step
		}
		if rem := out[i].Step % base.Step; rem != 0 {
			out[i].Step += base.Step - rem
		}
		if out[i].Slots <= 0 {
			out[i].Slots = 300
		}
	}
	c.Resolutions = out
	return c
}

// scalarRing retains one scalar series at one resolution. vals holds the
// per-slot value (counter: summed base deltas; gauge: last sampled value);
// endNs the instant of the last base sample folded into the slot.
type scalarRing struct {
	vals  []float64
	endNs []int64
}

type scalarSeries struct {
	key     string
	counter bool
	read    func() float64
	prev    float64 // cumulative baseline (counters)
	res     []scalarRing
}

// histRing retains one histogram at one resolution: per slot, the merged
// bucket deltas (flat, obs.NumBuckets per slot) plus count/sum deltas.
type histRing struct {
	buckets []int64
	counts  []int64
	sums    []int64
	endNs   []int64
}

type histSeries struct {
	key       string
	h         *obs.Histogram
	prevBkt   obs.BucketCounts
	prevCount int64
	prevSum   int64
	res       []histRing
}

// resState is one resolution's cursor: which slot is open and how many base
// samples it has absorbed.
type resState struct {
	per    uint64 // base samples per slot
	pos    int    // open slot index
	n      uint64 // base samples folded into the open slot
	sealed uint64 // slots completed over the store's lifetime
}

// Store is the multi-resolution retention engine. Build with NewStore,
// register series with Track* or Attach, then drive with Sample from one
// goroutine at the base cadence. Queries and window reductions are safe
// from any goroutine.
type Store struct {
	cfg Config

	mu       sync.Mutex
	scalars  []scalarSeries
	hists    []histSeries
	scalarIx map[string]int
	histIx   map[string]int
	resState []resState
	samples  uint64 // base samples taken
	lastNs   int64  // instant of the last sample
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:      cfg,
		scalarIx: map[string]int{},
		histIx:   map[string]int{},
		resState: make([]resState, len(cfg.Resolutions)),
	}
	base := cfg.Resolutions[0].Step
	for i, r := range cfg.Resolutions {
		s.resState[i].per = uint64(r.Step / base)
	}
	return s
}

// Resolutions returns the configured rings (finest first).
func (s *Store) Resolutions() []Resolution {
	out := make([]Resolution, len(s.cfg.Resolutions))
	copy(out, s.cfg.Resolutions)
	return out
}

// BaseStep returns the base sampling cadence Sample must be driven at.
func (s *Store) BaseStep() time.Duration { return s.cfg.Resolutions[0].Step }

// TrackCounter retains a monotonic counter as per-slot deltas. Duplicate
// keys are ignored (first registration wins).
func (s *Store) TrackCounter(key string, read func() float64) { s.track(key, true, read) }

// TrackGauge retains a gauge as per-slot last values.
func (s *Store) TrackGauge(key string, read func() float64) { s.track(key, false, read) }

func (s *Store) track(key string, counter bool, read func() float64) {
	if read == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.scalarIx[key]; dup {
		return
	}
	sc := scalarSeries{key: key, counter: counter, read: read, prev: read()}
	for _, r := range s.cfg.Resolutions {
		sc.res = append(sc.res, scalarRing{
			vals:  make([]float64, r.Slots),
			endNs: make([]int64, r.Slots),
		})
	}
	s.scalarIx[key] = len(s.scalars)
	s.scalars = append(s.scalars, sc)
}

// TrackHistogram retains a histogram as per-slot bucket/count/sum deltas.
func (s *Store) TrackHistogram(key string, h *obs.Histogram) {
	if h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.histIx[key]; dup {
		return
	}
	hs := histSeries{key: key, h: h, prevBkt: h.Buckets(), prevCount: h.Count(), prevSum: h.Sum()}
	for _, r := range s.cfg.Resolutions {
		hs.res = append(hs.res, histRing{
			buckets: make([]int64, r.Slots*obs.NumBuckets),
			counts:  make([]int64, r.Slots),
			sums:    make([]int64, r.Slots),
			endNs:   make([]int64, r.Slots),
		})
	}
	s.histIx[key] = len(s.hists)
	s.hists = append(s.hists, hs)
}

// Attach tracks every series the registry knows at this instant — counters
// and gauges as scalars, histograms as bucket rings. Series registered
// later are not picked up; daemons attach after their registration phase.
func (s *Store) Attach(reg *obs.Registry) {
	reg.VisitSeries(func(key, kind string, read func() float64) {
		if kind == "counter" {
			s.TrackCounter(key, read)
		} else {
			s.TrackGauge(key, read)
		}
	})
	reg.VisitHistograms(func(key string, h *obs.Histogram) {
		s.TrackHistogram(key, h)
	})
}

// Keys returns every tracked series key, scalars then histograms, each
// group sorted — the /history discovery listing.
func (s *Store) Keys() (scalars, hists []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.scalarIx {
		scalars = append(scalars, k)
	}
	for k := range s.histIx {
		hists = append(hists, k)
	}
	sort.Strings(scalars)
	sort.Strings(hists)
	return scalars, hists
}

// Samples returns how many base ticks have been folded in.
func (s *Store) Samples() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Sample folds one base tick into every ring. Call from one goroutine at
// the base cadence (a frame-loop divisor, a fleet tick, a ticker); in
// steady state it allocates nothing. now should come from the same clock
// that drives the rest of the session — the virtual clock in soaks.
func (s *Store) Sample(now time.Time) {
	nowNs := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()

	// Advance each resolution whose open slot is complete. fresh marks the
	// resolutions whose open slot must be zeroed before folding; a fixed
	// array keeps the hot path allocation-free (resolutions are few).
	var fresh [16]bool
	for i := range s.resState {
		rs := &s.resState[i]
		if rs.n == rs.per {
			rs.pos++
			if rs.pos == s.cfg.Resolutions[i].Slots {
				rs.pos = 0
			}
			rs.sealed++
			rs.n = 0
			fresh[i] = true
		}
		rs.n++
	}
	s.samples++
	s.lastNs = nowNs

	for si := range s.scalars {
		sc := &s.scalars[si]
		cur := sc.read()
		v := cur
		if sc.counter {
			v = cur - sc.prev
			if v < 0 {
				v = 0 // counter reset; never smear negatives into a slot
			}
			sc.prev = cur
		}
		for ri := range sc.res {
			r := &sc.res[ri]
			p := s.resState[ri].pos
			if fresh[ri] {
				r.vals[p] = 0
			}
			if sc.counter {
				r.vals[p] += v
			} else {
				r.vals[p] = v
			}
			r.endNs[p] = nowNs
		}
	}

	for hi := range s.hists {
		hs := &s.hists[hi]
		cur := hs.h.Buckets()
		count, sum := hs.h.Count(), hs.h.Sum()
		var delta obs.BucketCounts
		for i := range cur {
			delta[i] = cur[i] - hs.prevBkt[i]
		}
		dCount, dSum := count-hs.prevCount, sum-hs.prevSum
		hs.prevBkt, hs.prevCount, hs.prevSum = cur, count, sum
		for ri := range hs.res {
			r := &hs.res[ri]
			p := s.resState[ri].pos
			base := p * obs.NumBuckets
			if fresh[ri] {
				slot := r.buckets[base : base+obs.NumBuckets]
				for i := range slot {
					slot[i] = 0
				}
				r.counts[p], r.sums[p] = 0, 0
			}
			slot := r.buckets[base : base+obs.NumBuckets]
			for i := range delta {
				slot[i] += delta[i]
			}
			r.counts[p] += dCount
			r.sums[p] += dSum
			r.endNs[p] = nowNs
		}
	}
}

// validSlots returns how many slots of resolution ri currently hold data
// (the open slot counts once it has absorbed a sample). Caller holds mu.
func (s *Store) validSlots(ri int) int {
	rs := &s.resState[ri]
	n := rs.sealed
	if rs.n > 0 {
		n++
	}
	if max := uint64(s.cfg.Resolutions[ri].Slots); n > max {
		n = max
	}
	return int(n)
}

// pickRes selects the resolution for a query: an explicit step matches
// exactly (-1 when unknown); otherwise the finest ring whose span covers
// the window (the coarsest when none does).
func (s *Store) pickRes(step, window time.Duration) int {
	if step > 0 {
		for i, r := range s.cfg.Resolutions {
			if r.Step == step {
				return i
			}
		}
		return -1
	}
	for i, r := range s.cfg.Resolutions {
		if r.Span() >= window {
			return i
		}
	}
	return len(s.cfg.Resolutions) - 1
}

// Point is one retained slot of a query result. AtNs is the instant of the
// last base sample folded into the slot (its end, on a steady tick).
type Point struct {
	AtNs  int64   `json:"at_ns"`
	Value float64 `json:"value"`
}

// slotWalk iterates the last want valid slots of resolution ri oldest-first,
// calling fn with each ring position. Caller holds mu.
func (s *Store) slotWalk(ri, want int, fn func(pos int)) {
	valid := s.validSlots(ri)
	if want > valid {
		want = valid
	}
	slots := s.cfg.Resolutions[ri].Slots
	start := s.resState[ri].pos - want + 1
	for i := 0; i < want; i++ {
		p := start + i
		if p < 0 {
			p += slots
		}
		fn(p)
	}
}

// slotsFor converts a window to a slot count at resolution ri (≥ 1).
func (s *Store) slotsFor(ri int, window time.Duration) int {
	step := s.cfg.Resolutions[ri].Step
	n := int((window + step - 1) / step)
	if n < 1 {
		n = 1
	}
	return n
}

// QueryScalar returns the last window of a tracked scalar at the given
// resolution step (0 = auto-pick by window): per-slot counter deltas or
// gauge last-values, oldest first. ok is false for unknown series or steps.
func (s *Store) QueryScalar(key string, step, window time.Duration) (pts []Point, res Resolution, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, found := s.scalarIx[key]
	if !found {
		return nil, Resolution{}, false
	}
	ri := s.pickRes(step, window)
	if ri < 0 {
		return nil, Resolution{}, false
	}
	sc := &s.scalars[ix]
	r := &sc.res[ri]
	pts = make([]Point, 0, s.slotsFor(ri, window))
	s.slotWalk(ri, s.slotsFor(ri, window), func(p int) {
		pts = append(pts, Point{AtNs: r.endNs[p], Value: r.vals[p]})
	})
	return pts, s.cfg.Resolutions[ri], true
}

// HistStat selects the per-slot reduction of a histogram query.
type HistStat string

const (
	StatCount HistStat = "count" // observations in the slot
	StatSum   HistStat = "sum"   // summed observed value in the slot
	StatMean  HistStat = "mean"  // slot mean (0 when empty)
	StatQ     HistStat = "q"     // slot quantile upper bound (param q)
)

// QueryHist returns the last window of a tracked histogram reduced per
// slot by stat, oldest first.
func (s *Store) QueryHist(key string, step, window time.Duration, stat HistStat, q float64) (pts []Point, res Resolution, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, found := s.histIx[key]
	if !found {
		return nil, Resolution{}, false
	}
	ri := s.pickRes(step, window)
	if ri < 0 {
		return nil, Resolution{}, false
	}
	hs := &s.hists[ix]
	r := &hs.res[ri]
	pts = make([]Point, 0, s.slotsFor(ri, window))
	s.slotWalk(ri, s.slotsFor(ri, window), func(p int) {
		var v float64
		switch stat {
		case StatSum:
			v = float64(r.sums[p])
		case StatMean:
			if c := r.counts[p]; c > 0 {
				v = float64(r.sums[p]) / float64(c)
			}
		case StatQ:
			var b obs.BucketCounts
			copy(b[:], r.buckets[p*obs.NumBuckets:(p+1)*obs.NumBuckets])
			v = float64(obs.QuantileOfBuckets(b, r.counts[p], q))
		default: // StatCount
			v = float64(r.counts[p])
		}
		pts = append(pts, Point{AtNs: r.endNs[p], Value: v})
	})
	return pts, s.cfg.Resolutions[ri], true
}

// WindowCounterSum reduces a counter over the trailing window: the sum of
// its per-slot deltas, plus how much of the window the ring actually
// covers (so young stores can abstain). Allocation-free — the alert engine
// calls it every evaluation.
func (s *Store) WindowCounterSum(key string, window time.Duration) (sum float64, covered time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, found := s.scalarIx[key]
	if !found {
		return 0, 0, false
	}
	ri := s.pickRes(0, window)
	sc := &s.scalars[ix]
	r := &sc.res[ri]
	want := s.slotsFor(ri, window)
	n := 0
	s.slotWalk(ri, want, func(p int) {
		sum += r.vals[p]
		n++
	})
	covered = s.coveredLocked(ri, n)
	return sum, covered, true
}

// WindowGaugeMean reduces a gauge over the trailing window: the mean of
// its per-slot last-values, each passed through map_ when non-nil (e.g.
// collapsing a state gauge to 0/1 badness). Allocation-free.
func (s *Store) WindowGaugeMean(key string, window time.Duration, map_ func(float64) float64) (mean float64, covered time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, found := s.scalarIx[key]
	if !found {
		return 0, 0, false
	}
	ri := s.pickRes(0, window)
	sc := &s.scalars[ix]
	r := &sc.res[ri]
	want := s.slotsFor(ri, window)
	n := 0
	var sum float64
	s.slotWalk(ri, want, func(p int) {
		v := r.vals[p]
		if map_ != nil {
			v = map_(v)
		}
		sum += v
		n++
	})
	if n > 0 {
		mean = sum / float64(n)
	}
	covered = s.coveredLocked(ri, n)
	return mean, covered, true
}

// coveredLocked converts a counted slot walk into covered duration: sealed
// slots count a full step, the open slot only its absorbed base ticks.
func (s *Store) coveredLocked(ri, slots int) time.Duration {
	if slots == 0 {
		return 0
	}
	rs := &s.resState[ri]
	d := time.Duration(slots-1) * s.cfg.Resolutions[ri].Step
	if rs.n > 0 {
		d += time.Duration(rs.n) * s.cfg.Resolutions[0].Step
	} else {
		d += s.cfg.Resolutions[ri].Step
	}
	return d
}
