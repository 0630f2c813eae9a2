package relay

import (
	"sync"
	"sync/atomic"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/vclock"
)

// slot is one site's view of a hosted session: the transport address the
// relay returns traffic to, bound by the first valid datagram (or by the
// control plane) and never rebound from the data path.
type slot struct {
	addr  Addr
	bound bool
}

// hosted is one relayed session, owned exclusively by its shard's loop.
type hosted struct {
	token    Token
	slots    [2]slot
	pending  [2]*pendingRing // datagrams addressed to a still-unbound site
	lastSeen time.Time
	stats    *sessStats // nil unless Config.Stats
}

// sweepEvery is how often a shard's Step sweeps for sessions idle past
// Config.SessionTTL.
const sweepEvery = 10 * time.Second

// ctlKind enumerates control-plane operations applied between packet
// batches, so the packet path itself never sees admission churn.
type ctlKind uint8

const (
	ctlRegister ctlKind = iota
	ctlRebind
	ctlClose
)

type ctlOp struct {
	kind  ctlKind
	token Token
	site  int
	addr  Addr
}

// Shard is one shared-nothing event loop of the daemon. Readers push
// datagrams into its bounded inbound queue under the shard's own lock;
// everything else — the session table, pending rings, outbound batch — is
// touched only by the goroutine running the shard (see drive). Nothing in
// the packet path takes a lock owned by another shard.
type Shard struct {
	idx   int
	out   Front
	cfg   Config
	clock vclock.Clock

	mu  sync.Mutex
	inq []Message // bounded by cfg.QueueLen
	ctl []ctlOp
	own sync.Mutex // held by whoever runs the shard in real time; TryLock only

	// Loop-owned state (no locking).
	sessions  map[Token]*hosted
	inqSwap   []Message // Step's processing buffer, swapped with inq
	outBatch  []Message
	lastSweep time.Time // expiry sweeps run every sweepEvery

	// Per-session observability (Config.Stats): the shared block pool, the
	// published table snapshot the fleet aggregator reads, and the
	// loop-owned dirty flag that triggers a republish after membership
	// churn.
	sPool      *statsPool
	table      atomic.Pointer[[]statRef]
	tableDirty bool

	// Counters are atomics (obs.Counter) so obsadapt closures and tests can
	// read them while the loop runs.
	active          atomic.Int64
	sessionsTotal   obs.Counter
	sessionsExpired obs.Counter
	sessionsClosed  obs.Counter
	datagramsIn     obs.Counter
	forwarded       obs.Counter
	binds           obs.Counter
	queuedPending   obs.Counter
	rejRunt         obs.Counter
	rejToken        obs.Counter
	rejSite         obs.Counter
	rejSpoof        obs.Counter
	dropQueue       obs.Counter
	dropPending     obs.Counter
	queuePeak       atomic.Int64 // inbound-queue high-water mark
}

func newShard(idx int, out Front, cfg Config, pool *statsPool) *Shard {
	return &Shard{
		idx:      idx,
		out:      out,
		cfg:      cfg,
		clock:    cfg.Clock,
		sessions: make(map[Token]*hosted),
		inq:      make([]Message, 0, cfg.QueueLen),
		inqSwap:  make([]Message, 0, cfg.QueueLen),
		outBatch: make([]Message, 0, cfg.QueueLen),
		sPool:    pool,
	}
}

// Active returns the shard's live session count.
func (s *Shard) Active() int { return int(s.active.Load()) }

// Addr is the socket address clients of this shard's sessions send to.
func (s *Shard) Addr() string { return s.out.LocalAddr() }

// push hands one datagram (ownership of m.Buf included) to the shard. It is
// the only packet-path operation that may cross goroutines; overflow drops
// the datagram with a count, like a socket buffer.
func (s *Shard) push(m Message) {
	s.mu.Lock()
	if len(s.inq) >= s.cfg.QueueLen {
		s.mu.Unlock()
		s.dropQueue.Inc()
		putBuf(m.Buf)
		return
	}
	s.inq = append(s.inq, m)
	if n := int64(len(s.inq)); n > s.queuePeak.Load() {
		s.queuePeak.Store(n)
	}
	s.mu.Unlock()
}

// control enqueues a control-plane operation for the shard's next Step.
func (s *Shard) control(op ctlOp) {
	s.mu.Lock()
	s.ctl = append(s.ctl, op)
	s.mu.Unlock()
}

// Step drains the control queue and the inbound queue once, forwarding what
// it can and flushing the outbound batch. It returns the number of inbound
// datagrams processed. Step must only be called by the goroutine running the
// shard (or a test standing in for it).
func (s *Shard) Step() int {
	now := s.clock.Now()
	var nowNs int64
	if s.sPool != nil {
		nowNs = now.UnixNano()
	}

	s.mu.Lock()
	s.inq, s.inqSwap = s.inqSwap[:0], s.inq
	var ctl []ctlOp
	if len(s.ctl) > 0 {
		ctl = s.ctl
		s.ctl = nil
	}
	s.mu.Unlock()

	for _, op := range ctl {
		s.applyCtl(op, now)
	}
	for i := range s.inqSwap {
		s.ingest(&s.inqSwap[i], now, nowNs)
	}
	n := len(s.inqSwap)
	s.flush()
	if now.Sub(s.lastSweep) >= sweepEvery {
		s.sweep(now)
		s.lastSweep = now
	}
	if s.tableDirty {
		s.publishTable()
		s.tableDirty = false
	}
	return n
}

func (s *Shard) applyCtl(op ctlOp, now time.Time) {
	switch op.kind {
	case ctlRegister:
		// Place already accounted the session in s.active (so admission
		// sees the slot taken immediately); this only materializes it.
		if _, ok := s.sessions[op.token]; ok {
			s.active.Add(-1) // duplicate token: rebalance the pre-count
			return
		}
		h := &hosted{token: op.token, lastSeen: now}
		h.pending[0] = newPendingRing()
		h.pending[1] = newPendingRing()
		if s.sPool != nil {
			h.stats = s.sPool.get()
			h.stats.lastSeenNs.Store(now.UnixNano())
			s.tableDirty = true
		}
		s.sessions[op.token] = h
		s.sessionsTotal.Inc()
	case ctlRebind:
		h, ok := s.sessions[op.token]
		if !ok || op.site < 0 || op.site > 1 || op.addr.IsZero() {
			return
		}
		h.slots[op.site] = slot{addr: op.addr, bound: true}
		h.lastSeen = now
		if st := h.stats; st != nil {
			st.boundMask.Store(st.boundMask.Load() | 1<<uint(op.site))
			st.lastSeenNs.Store(now.UnixNano())
		}
		// The site's return path moved: anything parked for it can fly now.
		s.drainPending(h, op.site)
	case ctlClose:
		s.dropSession(op.token, &s.sessionsClosed)
	}
}

// ingest is the per-datagram packet path: validate the prefix, bind or
// verify the source slot, and forward to (or park for) the peer site.
// The message's buffer is either moved to the outbound batch, copied into a
// pending ring, or returned to the pool — never leaked. nowNs is now as
// Unix ns, precomputed by Step when per-session stats are on (0 otherwise);
// every stat update is an atomic store or a copy into preallocated memory,
// so the path stays 0 allocs/op with stats and the anomaly ring attached.
func (s *Shard) ingest(m *Message, now time.Time, nowNs int64) {
	s.datagramsIn.Inc()
	token, site, payload, ok := ParseHeader(m.Buf)
	if !ok {
		s.rejRunt.Inc()
		putBuf(m.Buf)
		return
	}
	if site != 0 && site != 1 {
		s.rejSite.Inc()
		putBuf(m.Buf)
		return
	}
	// Tap after the shape checks (runts and bad sites never made it onto the
	// wire view) but before token lookup, so a capture also shows the
	// stray-token traffic a replay needs to reproduce rejection load.
	if s.cfg.Tap != nil {
		s.cfg.Tap.Record(now, capture.DirRecv, site, m.Buf)
	}
	h, ok := s.sessions[token]
	if !ok {
		s.rejToken.Inc()
		putBuf(m.Buf)
		return
	}
	st := h.stats
	sl := &h.slots[site]
	switch {
	case !sl.bound:
		// First valid datagram from this site claims the slot (this is how
		// the relay learns NAT mappings without a handshake) ...
		sl.addr = m.Addr
		sl.bound = true
		if st != nil {
			st.boundMask.Store(st.boundMask.Load() | 1<<uint(site))
		}
		s.drainPending(h, site)
	case sl.addr != m.Addr:
		// ... but once bound, the data path must never rebind it: a valid
		// token is visible to anyone on the path, and honoring a new source
		// here would let a spoofer steal the session's return path
		// mid-game. Rebinds are control-plane only (lobby re-JOIN).
		s.rejSpoof.Inc()
		putBuf(m.Buf)
		return
	}
	h.lastSeen = now
	if st != nil {
		st.lastSeenNs.Store(nowNs)
		if m.At > 0 {
			st.residence.Observe(nowNs - m.At)
		}
		// The ring sees every accepted datagram, header included, so a
		// snapshot decodes back to this session's token and replays
		// verbatim through a relay.
		st.ring.Record(now, capture.DirRecv, site, m.Buf)
	}

	if len(payload) == 0 {
		// Header-only bind/keepalive (relay.ClientConn sends these until
		// peer traffic confirms the path): the slot bind and lastSeen
		// refresh above are its whole job. Roles that listen before they
		// speak — the handshake master waits for READY — would otherwise
		// never bind their slot and the peer's datagrams would park
		// forever. Nothing is forwarded or parked.
		s.binds.Inc()
		putBuf(m.Buf)
		return
	}

	if st != nil {
		st.in[site].Add(1)
		if last := st.lastInNs[site]; last != 0 {
			st.gap.Observe(nowNs - last)
		}
		st.lastInNs[site] = nowNs
	}

	dst := &h.slots[1-site]
	if !dst.bound {
		evicted := int64(h.pending[1-site].push(m.Buf))
		s.dropPending.Add(evicted)
		s.queuedPending.Inc()
		if st != nil {
			st.parked.Add(1)
			st.dropped.Add(evicted)
		}
		putBuf(m.Buf)
		return
	}
	m.Addr = dst.addr
	s.outBatch = append(s.outBatch, *m)
	s.forwarded.Inc()
	if st != nil {
		st.fwd.Add(1)
	}
	if len(s.outBatch) >= s.cfg.WriteBatch {
		s.flush()
	}
}

// drainPending flushes datagrams parked for site into the outbound batch.
func (s *Shard) drainPending(h *hosted, site int) {
	dst := h.slots[site].addr
	st := h.stats
	h.pending[site].drain(func(p []byte) {
		buf := getBuf()
		buf = append(buf[:0], p...)
		s.outBatch = append(s.outBatch, Message{Buf: buf, Addr: dst})
		s.forwarded.Inc()
		if st != nil {
			st.fwd.Add(1)
		}
	})
}

// flush writes the outbound batch through the shard's front and returns the
// buffers to the pool.
func (s *Shard) flush() {
	if len(s.outBatch) == 0 {
		return
	}
	if s.cfg.Tap != nil {
		// Record sends against the *destination* site. The buffered header
		// still carries the sender's site byte (the relay forwards datagrams
		// verbatim), so the destination is its complement. Recording here
		// covers both direct forwards and drained-pending sends with one hook.
		now := s.clock.Now()
		for i := range s.outBatch {
			if _, site, _, ok := ParseHeader(s.outBatch[i].Buf); ok {
				s.cfg.Tap.Record(now, capture.DirSend, 1-site, s.outBatch[i].Buf)
			}
		}
	}
	_, _ = s.out.Send(s.outBatch)
	for i := range s.outBatch {
		putBuf(s.outBatch[i].Buf)
		s.outBatch[i] = Message{}
	}
	s.outBatch = s.outBatch[:0]
}

// sweep expires sessions idle past the TTL, bounding the table against
// abandoned placements exactly like the lobby's sweep.
func (s *Shard) sweep(now time.Time) {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	for tok, h := range s.sessions {
		if now.Sub(h.lastSeen) > s.cfg.SessionTTL {
			s.dropSession(tok, &s.sessionsExpired)
		}
	}
}

func (s *Shard) dropSession(tok Token, counter *obs.Counter) {
	h, ok := s.sessions[tok]
	if !ok {
		return
	}
	h.pending[0].free()
	h.pending[1].free()
	if h.stats != nil {
		s.sPool.put(h.stats)
		h.stats = nil
		s.tableDirty = true
	}
	delete(s.sessions, tok)
	s.active.Add(-1)
	counter.Inc()
}

// drive runs the shard on the calling goroutine (a reader or the ticker)
// until its queues are empty, unless another goroutine runs it already. The
// owner looks again after releasing own: a push that found own taken after
// its Step would otherwise wait for the ticker.
func (s *Shard) drive(step *obs.Histogram) {
	for more := true; more && s.own.TryLock(); {
		t0 := time.Now()
		s.Step()
		step.Observe(time.Since(t0).Nanoseconds())
		s.own.Unlock()
		s.mu.Lock()
		more = len(s.inq) > 0 || len(s.ctl) > 0
		s.mu.Unlock()
	}
}
