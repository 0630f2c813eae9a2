package relay

import (
	"container/heap"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/vclock"
)

// The fleet aggregator: the daemon-level consumer of the shards' published
// stat-block tables. On a ticker it walks every shard's table (a lock-free
// atomic snapshot — the packet path is never touched), grades each
// session's windowed traffic through its own obs.Health engine, maintains a
// bounded top-K-worst view for the ops surface, and — when a session flips
// to degraded or infeasible — snapshots its anomaly ring into a
// self-contained .rkcp repro bundle, rate-limited and counted.
//
// Ownership contract: shard loops write stat blocks; the fleet only reads
// (atomics and lock-free histograms). The one shared mutable surface is the
// per-session ring, which has its own mutex. Stat blocks are pooled — the
// fleet detects recycled blocks by generation mismatch and simply skips
// them until the next table publish.

// FleetConfig sizes the aggregator. The zero value selects defaults.
type FleetConfig struct {
	// Window is the grading cadence (default 1 s). Each tick closes one
	// obs.Health window per session that saw traffic.
	Window time.Duration
	// TopK bounds the worst-sessions view (default 16).
	TopK int
	// Health sets the per-session grading thresholds. The zero value uses
	// the obs defaults: FrameTarget grades the payload inter-arrival gap
	// (16.67 ms — one datagram per frame per site at 60 FPS), RTT grades
	// relay residence, retransmits-per-frame grades pending-ring drops
	// per ingested datagram.
	Health obs.HealthConfig
	// StallAfter marks a session infeasible when no datagram has been
	// accepted for this long (default 2×Window). Without it a silent
	// session produces no samples, every signal abstains, and hysteresis
	// would recover a dead session to healthy.
	StallAfter time.Duration
	// CaptureLimit caps anomaly bundles over the fleet's lifetime
	// (default 16); CaptureEvery is the minimum spacing between bundles
	// (default 10 s). A flip that loses the rate race sets a pending
	// mark and retries next tick (FlushPending drains the marks at
	// shutdown). Each session is captured at most once.
	CaptureLimit int
	CaptureEvery time.Duration
	// OnCapture receives each anomaly bundle, called from the tick
	// goroutine (relayd writes the .rkcp file here). Nil disables
	// snapshotting but still counts flips.
	OnCapture func(AnomalyCapture)
	// disableFlipCapture stops per-session verdict flips from triggering
	// captures; CaptureBurning (driven by a burn-rate alert firing) becomes
	// the only capture trigger. Flips are still counted. The soaks set it,
	// so a fleet-wide incident yields one representative bundle instead of
	// a bundle per flipped session.
	disableFlipCapture bool
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 16
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 2 * c.Window
	}
	if c.CaptureLimit <= 0 {
		c.CaptureLimit = 16
	}
	if c.CaptureEvery <= 0 {
		c.CaptureEvery = 10 * time.Second
	}
	return c
}

// AnomalyCapture is one degraded/infeasible session's repro bundle.
type AnomalyCapture struct {
	Token   Token
	State   obs.HealthState
	Capture *capture.Capture
}

// fleetSession is the aggregator's per-session grading state.
type fleetSession struct {
	token Token
	shard int
	stats *sessStats
	gen   uint32

	health  *obs.Health
	verdict obs.HealthState // effective verdict (health ∨ stall)
	stalled bool

	lastTick uint64 // mark for departure sweep
	lastIn   int64  // inTotal at the last evaluation

	flips       int64 // transitions into degraded-or-worse
	captured    bool
	wantCapture bool // capture deferred by the rate limit
}

// FleetSummary is one tick's verdict census plus the fleet's lifetime
// counters.
type FleetSummary struct {
	Tracked    int   `json:"tracked"`
	Healthy    int   `json:"healthy"`
	Degraded   int   `json:"degraded"`
	Infeasible int   `json:"infeasible"`
	Stalled    int   `json:"stalled"`
	Graded     int64 `json:"graded_total"`
	Flips      int64 `json:"flips_total"`
	Captures   int64 `json:"captures_total"`
	Suppressed int64 `json:"captures_suppressed_total"`
}

// TopEntry is one row of the top-K-worst table.
type TopEntry struct {
	Token       string          `json:"token"`
	Shard       int             `json:"shard"`
	State       obs.HealthState `json:"-"`
	Verdict     string          `json:"verdict"`
	Stalled     bool            `json:"stalled,omitempty"`
	SinceSeenNs int64           `json:"since_seen_ns"`
	GapMeanNs   int64           `json:"gap_mean_ns"`
	ResidP50Ns  int64           `json:"residence_p50_ns"`
	In          int64           `json:"in"`
	Forwarded   int64           `json:"forwarded"`
	Parked      int64           `json:"parked"`
	Dropped     int64           `json:"dropped"`
	Bound       string          `json:"bound"` // "AB", "A-", "-B", "--"
	Flips       int64           `json:"flips"`
}

// FleetSnapshot is the ops surface's view of the last completed tick.
type FleetSnapshot struct {
	AtNs    int64        `json:"at_unix_ns"`
	Window  string       `json:"window"`
	Summary FleetSummary `json:"summary"`
	Top     []TopEntry   `json:"top"`
}

// Fleet is the aggregator. Build with NewFleet, drive with Start (real
// clock), StartVirtual (soaks) or explicit Tick calls (tests); read with
// Snapshot / SessionDetail / the /sessions handlers.
type Fleet struct {
	d      *Daemon
	cfg    FleetConfig
	clock  vclock.Clock
	closed atomic.Bool
	done   chan struct{} // closed by Close; stops Start's loop
	wg     sync.WaitGroup

	mu            sync.Mutex
	tick          uint64
	sessions      map[Token]*fleetSession
	graded        int64
	flips         int64
	captures      int64
	suppressed    int64
	lastCaptureNs int64

	snap atomic.Pointer[FleetSnapshot]
}

// NewFleet builds an aggregator over d. The daemon must have been built
// with Config.Stats — without stat blocks there is nothing to grade.
func NewFleet(d *Daemon, cfg FleetConfig) (*Fleet, error) {
	if !d.cfg.Stats {
		return nil, errors.New("relay: fleet aggregation requires Config.Stats")
	}
	f := &Fleet{
		d:        d,
		cfg:      cfg.withDefaults(),
		clock:    d.cfg.Clock,
		done:     make(chan struct{}),
		sessions: make(map[Token]*fleetSession),
	}
	f.snap.Store(&FleetSnapshot{Window: f.cfg.Window.String()})
	return f, nil
}

// newFleetSession binds a grading engine to a session's stat block. The
// health sources map relay observables onto the engine's signals: payload
// inter-arrival gap as frame time, relay residence as RTT, pending-ring
// drops per ingested datagram as the retransmit rate.
func (f *Fleet) newFleetSession(ref statRef, shard int) *fleetSession {
	st := ref.stats
	return &fleetSession{
		token: ref.token,
		shard: shard,
		stats: st,
		gen:   ref.gen,
		health: obs.NewHealth(f.cfg.Health, obs.HealthSources{
			FrameTime:   &st.gap,
			RTT:         &st.residence,
			Retransmits: st.dropped.Load,
			Frames:      st.inTotal,
		}),
	}
}

// Tick closes one grading window: walk every shard's published table, grade
// each live session, rebuild the top-K view, fire anomaly captures, and
// sweep sessions that departed. Call from one goroutine (the ticker) — or
// directly from tests, which makes grading fully deterministic.
func (f *Fleet) Tick(now time.Time) FleetSummary {
	nowNs := now.UnixNano()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tick++
	var sum FleetSummary
	top := topKHeap{k: f.cfg.TopK}

	for _, sh := range f.d.Shards() {
		for _, ref := range sh.sessionTable() {
			if !ref.valid() {
				// The block was recycled between publish and read: the
				// session is gone; the sweep below collects its state.
				continue
			}
			fs := f.sessions[ref.token]
			if fs == nil {
				fs = f.newFleetSession(ref, sh.idx)
				f.sessions[ref.token] = fs
			}
			fs.lastTick = f.tick

			// Grade only when the window saw traffic; with zero new
			// samples every signal abstains and the verdict would drift
			// back to healthy — silence is the stall signal's job.
			if in := ref.stats.inTotal(); in > fs.lastIn {
				fs.lastIn = in
				fs.health.Evaluate(now)
				f.graded++
			}
			v := fs.health.State()
			lastSeen := ref.stats.lastSeenNs.Load()
			fs.stalled = lastSeen > 0 && nowNs-lastSeen > int64(f.cfg.StallAfter)
			if fs.stalled {
				v = obs.Infeasible
			}
			prev := fs.verdict
			fs.verdict = v
			switch {
			case v > prev && v >= obs.Degraded:
				fs.flips++
				f.flips++
				if !f.cfg.disableFlipCapture {
					f.maybeCapture(fs, ref, now, v)
				}
			case fs.wantCapture && v >= obs.Degraded:
				f.maybeCapture(fs, ref, now, v) // rate-limit retry
			case v == obs.Healthy:
				fs.wantCapture = false
			}

			sum.Tracked++
			switch v {
			case obs.Healthy:
				sum.Healthy++
			case obs.Degraded:
				sum.Degraded++
			case obs.Infeasible:
				sum.Infeasible++
			}
			if fs.stalled {
				sum.Stalled++
			}
			if v > obs.Healthy {
				top.offer(f.topEntry(fs, ref, nowNs))
			}
		}
	}

	for tok, fs := range f.sessions {
		if fs.lastTick != f.tick {
			delete(f.sessions, tok) // departed (closed or expired)
		}
	}

	sum.Graded, sum.Flips = f.graded, f.flips
	sum.Captures, sum.Suppressed = f.captures, f.suppressed
	f.snap.Store(&FleetSnapshot{
		AtNs:    nowNs,
		Window:  f.cfg.Window.String(),
		Summary: sum,
		Top:     top.sorted(),
	})
	return sum
}

func (f *Fleet) topEntry(fs *fleetSession, ref statRef, nowNs int64) TopEntry {
	st := ref.stats
	sig := fs.health.Signals()
	mask := st.boundMask.Load()
	bound := [2]byte{'-', '-'}
	if mask&1 != 0 {
		bound[0] = 'A'
	}
	if mask&2 != 0 {
		bound[1] = 'B'
	}
	return TopEntry{
		Token:       fs.token.String(),
		Shard:       fs.shard,
		State:       fs.verdict,
		Verdict:     fs.verdict.String(),
		Stalled:     fs.stalled,
		SinceSeenNs: nowNs - st.lastSeenNs.Load(),
		GapMeanNs:   sig.FrameMean,
		ResidP50Ns:  sig.RTTp50,
		In:          st.inTotal(),
		Forwarded:   st.fwd.Load(),
		Parked:      st.parked.Load(),
		Dropped:     st.dropped.Load(),
		Bound:       string(bound[:]),
		Flips:       fs.flips,
	}
}

// maybeCapture snapshots the session's anomaly ring into a bundle, subject
// to the once-per-session, lifetime-limit and rate-limit guards. Caller
// holds f.mu.
func (f *Fleet) maybeCapture(fs *fleetSession, ref statRef, now time.Time, v obs.HealthState) {
	if fs.captured || ref.stats.ring == nil || f.cfg.OnCapture == nil {
		return
	}
	if f.captures >= int64(f.cfg.CaptureLimit) {
		if !fs.wantCapture {
			f.suppressed++
		}
		fs.wantCapture = false // the limit never lifts; stop retrying
		return
	}
	if f.lastCaptureNs != 0 && now.UnixNano()-f.lastCaptureNs < int64(f.cfg.CaptureEvery) {
		if !fs.wantCapture {
			f.suppressed++
			fs.wantCapture = true
		}
		return
	}
	f.captureLocked(fs, ref, now, v)
}

// captureLocked emits the bundle unconditionally (guards already applied).
func (f *Fleet) captureLocked(fs *fleetSession, ref statRef, now time.Time, v obs.HealthState) {
	c := ref.stats.ring.Snapshot(capture.Meta{
		Session: ref.token.String(),
		Verdict: v.String(),
		Notes:   "relayd anomaly capture",
	})
	fs.captured, fs.wantCapture = true, false
	f.captures++
	f.lastCaptureNs = now.UnixNano()
	f.cfg.OnCapture(AnomalyCapture{Token: ref.token, State: v, Capture: c})
}

// FlushPending emits bundles for sessions whose capture was deferred by the
// rate limit — the shutdown path, so an operator killing a degraded relayd
// still gets the evidence. The lifetime limit still applies.
func (f *Fleet) FlushPending(now time.Time) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, fs := range f.sessions {
		if !fs.wantCapture || fs.captured {
			continue
		}
		if f.captures >= int64(f.cfg.CaptureLimit) {
			break
		}
		ref := statRef{token: fs.token, stats: fs.stats, gen: fs.gen}
		if !ref.valid() {
			continue
		}
		f.captureLocked(fs, ref, now, fs.verdict)
		n++
	}
	return n
}

// CaptureBurning is the alert-driven capture trigger: it snapshots the single
// worst currently-unhealthy, not-yet-captured session into a bundle, subject
// to the same lifetime and rate-limit guards as flip captures. relayd wires
// it to the burn-rate engine's fire transition, so a fleet-wide incident
// yields one representative .rkcp instead of one per degraded session.
//
// The victim choice is deterministic regardless of map iteration order:
// worst verdict first, then lowest token. Returns the captured session's
// token, or ok=false when nothing qualified (no unhealthy sessions, all
// captured already, guards tripped, or no OnCapture sink).
func (f *Fleet) CaptureBurning(now time.Time) (tok Token, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.OnCapture == nil {
		return 0, false
	}
	var victim *fleetSession
	for _, fs := range f.sessions {
		if fs.captured || fs.verdict < obs.Degraded || fs.stats.ring == nil {
			continue
		}
		if victim == nil || fs.verdict > victim.verdict ||
			(fs.verdict == victim.verdict && fs.token < victim.token) {
			victim = fs
		}
	}
	if victim == nil {
		return 0, false
	}
	ref := statRef{token: victim.token, stats: victim.stats, gen: victim.gen}
	if !ref.valid() {
		return 0, false
	}
	if f.captures >= int64(f.cfg.CaptureLimit) {
		f.suppressed++
		return 0, false
	}
	if f.lastCaptureNs != 0 && now.UnixNano()-f.lastCaptureNs < int64(f.cfg.CaptureEvery) {
		f.suppressed++
		return 0, false
	}
	f.captureLocked(victim, ref, now, victim.verdict)
	return victim.token, true
}

// Snapshot returns the last completed tick's view (never nil).
func (f *Fleet) Snapshot() *FleetSnapshot { return f.snap.Load() }

// Start launches the real-clock tick loop.
func (f *Fleet) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(f.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-f.done:
				return
			case <-f.d.done:
				return
			case now := <-t.C:
				f.Tick(now)
			}
		}
	}()
}

// StartVirtual launches the tick loop as a virtual-clock actor, phase-
// aligned with the daemon's poll loop (same clock). Like the daemon's, the
// loop is stopped from inside the world, by Close on the fleet or on its
// daemon, and exits at its next tick; the returned channel is closed then.
func (f *Fleet) StartVirtual(v *vclock.Virtual) <-chan struct{} {
	return v.Go(func() {
		for !f.closed.Load() && !f.d.closed.Load() {
			v.Sleep(f.cfg.Window)
			f.Tick(f.clock.Now())
		}
	})
}

// Close stops the tick loop, waiting for a real-clock one; it does not
// wait for the loop's next tick. It does not flush pending captures: call
// FlushPending after it when the evidence matters, so that no tick runs
// beside the flush.
func (f *Fleet) Close() {
	if f.closed.Swap(true) {
		return
	}
	close(f.done)
	f.wg.Wait()
}

// topKHeap keeps the K worst entries seen this tick: a min-heap ordered by
// badness, so the root is the least-bad kept entry and is evicted when a
// worse one arrives. Deterministic: ties break on token.
type topKHeap struct {
	k  int
	es []TopEntry
}

// worse reports whether a outranks b on the ops table.
func worse(a, b *TopEntry) bool {
	if a.State != b.State {
		return a.State > b.State
	}
	if a.SinceSeenNs != b.SinceSeenNs {
		return a.SinceSeenNs > b.SinceSeenNs // staler is worse
	}
	if a.GapMeanNs != b.GapMeanNs {
		return a.GapMeanNs > b.GapMeanNs
	}
	return a.Token < b.Token
}

func (h *topKHeap) Len() int           { return len(h.es) }
func (h *topKHeap) Less(i, j int) bool { return worse(&h.es[j], &h.es[i]) } // min-heap by badness
func (h *topKHeap) Swap(i, j int)      { h.es[i], h.es[j] = h.es[j], h.es[i] }
func (h *topKHeap) Push(x any)         { h.es = append(h.es, x.(TopEntry)) }
func (h *topKHeap) Pop() any           { e := h.es[len(h.es)-1]; h.es = h.es[:len(h.es)-1]; return e }
func (h *topKHeap) offer(e TopEntry) {
	if len(h.es) < h.k {
		heap.Push(h, e)
		return
	}
	if worse(&e, &h.es[0]) {
		h.es[0] = e
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into worst-first order.
func (h *topKHeap) sorted() []TopEntry {
	out := make([]TopEntry, len(h.es))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(TopEntry)
	}
	// Heap pop order is least-bad first; reversed above, out is worst-first.
	return out
}
