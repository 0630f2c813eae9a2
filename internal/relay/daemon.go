package relay

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/vclock"
)

// Config sizes one daemon. The zero value selects defaults fit for a laptop;
// a production box raises Shards toward its core count and MaxSessions
// toward its memory budget.
type Config struct {
	// Shards is the number of shared-nothing event loops (default 8,
	// max MaxShards).
	Shards int
	// MaxSessions caps the sessions hosted per shard (default 4096);
	// admission fails once every shard is full.
	MaxSessions int
	// QueueLen bounds each shard's inbound queue in datagrams (default
	// 4096). Overflow drops with a count, like a kernel socket buffer.
	QueueLen int
	// WriteBatch is how many outbound datagrams a shard accumulates before
	// flushing mid-step (default 64, the mmsg batch size).
	WriteBatch int
	// SessionTTL expires sessions with no traffic (default 2 m), swept
	// every sweepEvery. Zero TTL disables expiry.
	SessionTTL time.Duration
	// TickEvery paces the real-mode ticker that runs every shard (default 50 ms).
	TickEvery time.Duration
	// Clock defaults to vclock.System; virtual-time runs inject their
	// vclock.Virtual (and start the daemon with StartVirtual).
	Clock vclock.Clock
	// Seed drives token salt generation (0 picks a fixed seed; tokens only
	// need uniqueness, unguessability is best-effort without crypto).
	Seed int64
	// Tap, when set, mirrors every datagram crossing the shards into the
	// bounded capture recorder (capture.DirRecv at ingest with the sender's
	// site, capture.DirSend at flush with the destination site; the relay
	// prefix is included, so a capture replays verbatim). Recording is
	// allocation-free in steady state and drops with a count once the
	// recorder's budgets fill, so the tap may stay attached under load —
	// BenchmarkRelayShardStepCaptured gates the cost.
	Tap *capture.Recorder

	// Stats enables the per-session stat blocks the fleet aggregator and
	// the /sessions ops surface read: forwarded/parked/dropped counts,
	// inter-arrival and relay-residence histograms, last-seen and bind
	// state, updated inline by the shard loops with no cross-shard locks
	// and no per-datagram allocation (BenchmarkRelayShardStepStats gates
	// the cost). Blocks are pooled across session churn.
	Stats bool

	// AutoCaptureRecords / AutoCaptureBytes bound each session's anomaly
	// flight-recorder ring (most recent accepted datagrams, drop-oldest).
	// Setting either enables the rings (the other takes its default: 64
	// records / 8 KiB); both zero disables them. Requires Stats.
	AutoCaptureRecords int
	AutoCaptureBytes   int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 4096
	}
	if c.WriteBatch <= 0 {
		c.WriteBatch = 64
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = vclock.System
	}
	if c.Seed == 0 {
		c.Seed = 0x7e7a
	}
	if c.AutoCaptureRecords > 0 && c.AutoCaptureBytes <= 0 {
		c.AutoCaptureBytes = 8 * 1024
	}
	if c.AutoCaptureBytes > 0 && c.AutoCaptureRecords <= 0 {
		c.AutoCaptureRecords = 64
	}
	return c
}

// ErrFull is returned by Place when every shard is at MaxSessions.
var ErrFull = errors.New("relay: all shards at capacity")

// Placement is an admission decision: the session's token and the socket
// address its two sites must send their prefixed datagrams to.
type Placement struct {
	Token Token
	Addr  string
}

// Daemon multiplexes hosted sessions over its fronts.
type Daemon struct {
	cfg    Config
	fronts []Front
	shards []*Shard
	closed atomic.Bool
	done   chan struct{} // closed by Close; stops the ticker
	wg     sync.WaitGroup

	mu   sync.Mutex
	rng  *rand.Rand
	seq  uint32
	next int // round-robin placement cursor

	// Daemon-level reject counters: datagrams a reader could not even
	// route to a shard.
	rejRoute obs.Counter
	rejRunt  obs.Counter

	// StepTime aggregates real-mode shard step durations (ns) across all
	// shards; empty outside real mode. It doubles as the daemon's health
	// signal: an overloaded relay shows up as step-time inflation long
	// before packets drop.
	StepTime *obs.Histogram
}

// NewDaemon builds a daemon over the given fronts (at least one). Shard i
// writes through front i mod len(fronts); readers route by token, so any
// datagram reaching any front still finds its shard.
func NewDaemon(cfg Config, fronts []Front) (*Daemon, error) {
	if len(fronts) == 0 {
		return nil, errors.New("relay: need at least one front")
	}
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		fronts:   fronts,
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		StepTime: &obs.Histogram{},
	}
	var pool *statsPool
	if cfg.Stats {
		pool = newStatsPool(cfg.AutoCaptureRecords, cfg.AutoCaptureBytes)
	}
	for i := 0; i < cfg.Shards; i++ {
		d.shards = append(d.shards, newShard(i, fronts[i%len(fronts)], cfg, pool))
	}
	return d, nil
}

// Shards exposes the shard table (read-only) for metrics and tests.
func (d *Daemon) Shards() []*Shard { return d.shards }

// Sessions returns the daemon-wide live session count.
func (d *Daemon) Sessions() int {
	n := 0
	for _, s := range d.shards {
		n += s.Active()
	}
	return n
}

// Place admits one session: it picks the least-loaded shard (round-robin
// tie-break), mints a token, registers the session on the shard's loop and
// returns where its clients must send. ErrFull when every shard is at cap.
func (d *Daemon) Place() (Placement, error) {
	d.mu.Lock()
	best := -1
	bestActive := 0
	for i := 0; i < len(d.shards); i++ {
		s := d.shards[(d.next+i)%len(d.shards)]
		if a := s.Active(); a < d.cfg.MaxSessions && (best < 0 || a < bestActive) {
			best = (d.next + i) % len(d.shards)
			bestActive = a
		}
	}
	if best < 0 {
		d.mu.Unlock()
		return Placement{}, ErrFull
	}
	d.next = (best + 1) % len(d.shards)
	d.seq++
	tok := MakeToken(best, d.seq, d.rng.Uint32())
	d.mu.Unlock()

	sh := d.shards[best]
	// Account immediately so concurrent Places see the slot taken before
	// the shard loop applies the registration.
	sh.active.Add(1)
	sh.control(ctlOp{kind: ctlRegister, token: tok, site: -1})
	return Placement{Token: tok, Addr: sh.Addr()}, nil
}

// Rebind moves one site's return path — the control-plane operation behind
// a lobby re-JOIN after a NAT rebind. The data path itself never rebinds.
func (d *Daemon) Rebind(tok Token, site int, addr Addr) {
	if sh, ok := d.shardOf(tok); ok {
		sh.control(ctlOp{kind: ctlRebind, token: tok, site: site, addr: addr})
	}
}

// CloseSession releases a hosted session.
func (d *Daemon) CloseSession(tok Token) {
	if sh, ok := d.shardOf(tok); ok {
		sh.control(ctlOp{kind: ctlClose, token: tok})
	}
}

func (d *Daemon) shardOf(tok Token) (*Shard, bool) {
	i := tok.ShardIndex()
	if i >= len(d.shards) {
		return nil, false
	}
	return d.shards[i], true
}

// Route disperses one received batch onto shard queues. Buffer ownership
// transfers to the shard on push (the caller's slot is refilled from the
// pool); on reject the buffer stays with the reader for reuse. Exported for
// custom front integrations and the packet-path benchmarks.
func (d *Daemon) Route(ms []Message, n int) { d.route(ms, n, nil) }

// route is Route marking fed[i] for every shard i it pushes to.
func (d *Daemon) route(ms []Message, n int, fed []bool) {
	// One clock read per batch, not per datagram: the residence series
	// only needs batch granularity, and the virtual clock's Now takes a
	// mutex the packet path must not contend on per packet.
	var at int64
	if d.cfg.Stats && n > 0 {
		at = d.cfg.Clock.Now().UnixNano()
	}
	for i := 0; i < n; i++ {
		if len(ms[i].Buf) < HeaderLen {
			d.rejRunt.Inc()
			continue
		}
		tok, _, _, _ := ParseHeader(ms[i].Buf)
		idx := tok.ShardIndex()
		if idx >= len(d.shards) {
			d.rejRoute.Inc()
			continue
		}
		ms[i].At = at
		d.shards[idx].push(ms[i])
		ms[i].Buf = getBuf() // replace the buffer we just handed over
		if fed != nil {
			fed[idx] = true
		}
	}
}

// Start launches real-clock operation: one blocking batched reader per front,
// which runs the shards each batch fed (Shard.drive), and one ticker.
func (d *Daemon) Start() {
	d.wg.Add(len(d.fronts) + 1)
	for _, f := range d.fronts {
		go d.readReal(f)
	}
	go d.tick()
}

func (d *Daemon) readReal(f Front) {
	defer d.wg.Done()
	ms := newBatch(d.cfg.WriteBatch)
	fed := make([]bool, len(d.shards))
	for !d.closed.Load() {
		n, err := f.Recv(ms)
		if err != nil {
			if d.closed.Load() {
				return
			}
			// Transient (ICMP unreachable and friends): keep serving.
			continue
		}
		d.route(ms, n, fed)
		for i, ok := range fed {
			if ok {
				fed[i] = false
				d.shards[i].drive(d.StepTime)
			}
		}
	}
}

// tick drives every shard each TickEvery until Close.
func (d *Daemon) tick() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
		}
		for _, s := range d.shards {
			s.drive(d.StepTime)
		}
	}
}

// pollEvery paces StartVirtual's polled loop.
const pollEvery = 200 * time.Microsecond

// StartVirtual runs the daemon as one virtual-clock actor: each poll reads
// every front and routes what it got, then steps every shard, in order, then
// sleeps pollEvery. So at every instant all of a poll's pushes precede all of
// its steps: "this step or the next" is decided by that order, not by the
// host. A CI soak drives tens of thousands of sessions through real shard
// code this way in milliseconds of wall time. The caller's Scenario must use
// the same clock, and calls this from its root actor (see vclock.Virtual).
//
// The loop runs until Close, which must then come from inside the world (an
// actor or a clock event), so the last poll lands at a virtual instant the
// program fixes. The returned channel is closed when the loop has exited.
func (d *Daemon) StartVirtual(v *vclock.Virtual) <-chan struct{} {
	return v.Go(func() { d.poll(v) })
}

// poll is the StartVirtual loop. After Close it steps and flushes every
// shard once more.
func (d *Daemon) poll(v *vclock.Virtual) {
	ms := newBatch(d.cfg.WriteBatch)
	for !d.closed.Load() {
		for _, f := range d.fronts {
			if n, err := f.Recv(ms); err == nil && n > 0 {
				d.Route(ms, n)
			}
		}
		for _, s := range d.shards {
			s.Step()
		}
		v.Sleep(pollEvery)
	}
	for _, s := range d.shards {
		s.Step()
		s.flush()
	}
}

// newBatch allocates a reader batch backed by pooled buffers.
func newBatch(n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = getBuf()
	}
	return ms
}

// Close stops every loop and socket. Safe to call twice. It waits for the
// real-clock goroutines; a StartVirtual loop exits at its next wake-up.
func (d *Daemon) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.done)
	var first error
	for _, f := range d.fronts {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.wg.Wait()
	return first
}
