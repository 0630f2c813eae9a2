package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/span"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// InputSync implements Algorithm 2 (SyncInput) for the paper's two players,
// extended with observers. Between the two players the code paths reduce
// exactly to the published pseudocode:
//
//   - IBuf            -> ibuf (a bounded ring window instead of the paper's
//     "unlimited array"; see inputRing)
//   - IBufPointer     -> pointer
//   - LastRcvFrame[i] -> lastRcv[i]
//   - LastAckFrame[i] -> peers[i].lastAck
//
// It is not safe for concurrent use; the site's frame loop owns it.
type InputSync struct {
	cfg   Config
	clock vclock.Clock
	epoch time.Time

	// lag is the current local lag in frames. It starts at cfg.BufFrame
	// and changes only through SetLag (the adaptive-lag ablation; the
	// paper's system keeps it fixed, §4.2).
	lag int

	peers map[int]*peerState
	// peerList is the same set as peers, in registration order. The per-poll
	// loops (Pump, retire, FlushAcks) walk the slice: ranging over a Go map
	// re-randomizes iteration order on every pass, which costs more than the
	// loop bodies on the sync hot path.
	peerList []*peerState

	ibuf    inputRing
	pointer int
	lastRcv []int // indexed by player site, len NumPlayers

	// retainFloor pins the ring's retired edge: frames >= retainFloor stay
	// buffered even after delivery and acknowledgement. The lockstep path
	// leaves it unset (maxInt); the rollback baseline lowers it to its
	// confirmation frontier, which re-reads delivered frames during
	// reconciliation. See SetRetainFloor.
	retainFloor int

	// rcvAt[k] is when lastRcv[k] last advanced: MasterRcvTime for site 0
	// (Algorithm 4) and the basis of remote-frame estimation for the
	// rollback baseline's timesync. The zero time means "never".
	rcvAt []time.Time

	stats syncCounters

	// bell lets a blocked SyncInput nap past the polls that would find
	// nothing (see idle). It is nil, and the wait polls every pollInterval,
	// unless the clock is a vclock.Virtual and every peer's conn stack is a
	// transport.Notifier; armed counts the peers whose stacks ring it.
	virt  *vclock.Virtual
	bell  *vclock.Bell
	armed int

	// lastWait is how long the most recent SyncInput blocked (0 when it
	// did not). Frame-loop local — the session's flight recorder reads it
	// right after SyncInput returns.
	lastWait time.Duration

	// Published mirrors of frame-loop state for concurrent pollers. Single
	// writer (the frame loop) stores, any goroutine loads — same discipline
	// as syncCounters. They exist so Lag and AllAcked never read the plain
	// fields or walk the peers map (which AddJoiner mutates mid-session).
	lagPub    atomic.Int64 // mirrors lag
	ownRcvPub atomic.Int64 // mirrors lastRcv[SiteNo]
	minAckPub atomic.Int64 // min of lastAck across peers (maxInt if peerless)

	// tele is the optional observability bundle (tracer + histograms).
	// All hooks are nil-safe, so the zero value costs one predictable
	// branch per event on the hot path.
	tele *obs.SessionObs

	// journal is the optional input-journey span journal; every protocol
	// hop stamps it (nil-safe, zero-alloc). See internal/span.
	journal *span.Journal

	// batch coalesces the frame's journal stamps so the hot path takes the
	// journal lock once per frame instead of once per hop. SyncInput and the
	// session's render step flush it; FlushSpans covers the drain paths.
	batch span.Batch

	// Exec report state: the newest frame this site began executing and its
	// begin instant (µs since epoch), piggybacked on every outgoing sync
	// message so the peer can align the two execution timelines.
	lastExecFrame int
	lastExecTime  uint32
	haveExec      bool

	// OnHash, when set, receives peer state digests (divergence
	// detection); Session wires it to its hash log.
	OnHash func(site, frame int, hash uint64)

	// Hot-path scratch buffers, reused across sends and receives so the
	// 60 FPS loop does not allocate (and hence does not churn the GC).
	sendBuf    []byte
	sendInputs []uint16
	rcvInputs  []uint16
}

// peerState tracks per-connection protocol state.
type peerState struct {
	Peer
	lastAck  int       // last own-input frame this peer acknowledged
	lastSend time.Time // for 20 ms send pacing
	rtt      RTTEstimator

	// notifier is Conn as a transport.Notifier once it rings the bell.
	notifier transport.Notifier

	// Echo bookkeeping for RTT measurement.
	echoTime   uint32
	echoRecvAt time.Time
	haveEcho   bool

	// offset estimates this peer's clock offset from the same echo
	// exchanges that feed the RTT estimator (see span.OffsetEstimator).
	offset span.OffsetEstimator
}

// Stats counts protocol activity, for the extended experiments. It is a
// plain snapshot struct; the live counters behind it are atomic (see
// syncCounters), so Stats() may be polled from any goroutine while the
// frame loop runs.
type Stats struct {
	MsgsSent      int
	MsgsRcvd      int
	BytesSent     int64 // sync-protocol payload bytes on the wire
	BytesRcvd     int64
	InputsSent    int // input words transmitted, including retransmissions
	InputsFresh   int // first-time receptions that advanced lastRcv
	InputsDup     int // received input words that were already buffered
	Waits         int // SyncInput invocations that had to block
	WaitTime      time.Duration
	MalformedRcvd int
	SnapChunks    int // snapshot chunks served to late joiners
	BufPeak       int // high-water mark of the input ring window, in frames
}

// syncCounters is the live, concurrently-pollable form of Stats. The frame
// loop is the only writer, so plain Store suffices for the high-water mark;
// atomic loads make reads race-free from any goroutine (registry gauges,
// Drain on another site, chaos phase snapshots).
type syncCounters struct {
	msgsSent    atomic.Int64
	msgsRcvd    atomic.Int64
	bytesSent   atomic.Int64
	bytesRcvd   atomic.Int64
	inputsSent  atomic.Int64
	inputsFresh atomic.Int64
	inputsDup   atomic.Int64
	waits       atomic.Int64
	waitTimeNs  atomic.Int64
	malformed   atomic.Int64
	snapChunks  atomic.Int64
	bufPeak     atomic.Int64
}

// snapshot assembles a Stats view. Each field is read atomically but the
// struct is not a consistent cut across fields — adequate for monitoring and
// for deltas over quiescent points (phase boundaries, drained sessions).
func (c *syncCounters) snapshot() Stats {
	return Stats{
		MsgsSent:      int(c.msgsSent.Load()),
		MsgsRcvd:      int(c.msgsRcvd.Load()),
		BytesSent:     c.bytesSent.Load(),
		BytesRcvd:     c.bytesRcvd.Load(),
		InputsSent:    int(c.inputsSent.Load()),
		InputsFresh:   int(c.inputsFresh.Load()),
		InputsDup:     int(c.inputsDup.Load()),
		Waits:         int(c.waits.Load()),
		WaitTime:      time.Duration(c.waitTimeNs.Load()),
		MalformedRcvd: int(c.malformed.Load()),
		SnapChunks:    int(c.snapChunks.Load()),
		BufPeak:       int(c.bufPeak.Load()),
	}
}

// NewInputSync creates the sync state for one site. epoch anchors the
// message timestamps; every site may use its own epoch. peers lists every
// remote site this one exchanges messages with (players and observers).
func NewInputSync(cfg Config, clock vclock.Clock, epoch time.Time, peers []Peer) (*InputSync, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &InputSync{
		cfg:         cfg,
		clock:       clock,
		epoch:       epoch,
		lag:         cfg.BufFrame,
		peers:       make(map[int]*peerState, len(peers)),
		lastRcv:     make([]int, cfg.NumPlayers),
		rcvAt:       make([]time.Time, cfg.NumPlayers),
		pointer:     cfg.StartFrame,
		ibuf:        newInputRing(cfg.StartFrame),
		retainFloor: int(^uint(0) >> 1),

		lastExecFrame: -1,
	}
	// Initialization (paper §3): the arrays start at BufFrame-1, because
	// the first BufFrame frames of the game carry no input (local lag).
	// A late joiner (StartFrame > BufFrame-1) has received nothing beyond
	// StartFrame-1; everything after its snapshot must arrive on the wire.
	init := cfg.BufFrame - 1
	if cfg.StartFrame-1 > init {
		init = cfg.StartFrame - 1
	}
	for k := 0; k < cfg.NumPlayers; k++ {
		s.lastRcv[k] = init
	}
	for _, p := range peers {
		if p.Site == cfg.SiteNo {
			return nil, fmt.Errorf("core: peer list contains self (site %d)", p.Site)
		}
		if _, dup := s.peers[p.Site]; dup {
			return nil, fmt.Errorf("core: duplicate peer site %d", p.Site)
		}
		ps := &peerState{Peer: p, lastAck: init}
		s.peers[p.Site] = ps
		s.peerList = append(s.peerList, ps)
	}
	if v, ok := clock.(*vclock.Virtual); ok {
		s.virt, s.bell = v, v.NewBell()
	}
	s.lagPub.Store(int64(s.lag))
	s.ownRcvPub.Store(int64(init))
	s.republishAcks()
	return s, nil
}

// republishAcks recomputes the published minimum acknowledgement across all
// peers. The frame loop calls it whenever a lastAck advances or a peer
// joins, so AllAcked can answer pollers without touching the peers map.
func (s *InputSync) republishAcks() {
	min := int64(int(^uint(0) >> 1))
	for _, p := range s.peerList {
		if a := int64(p.lastAck); a < min {
			min = a
		}
	}
	s.minAckPub.Store(min)
}

// Config returns the site configuration (with defaults applied).
func (s *InputSync) Config() Config { return s.cfg }

// Stats returns a snapshot of the protocol counters. Safe to call from any
// goroutine while the session runs.
func (s *InputSync) Stats() Stats { return s.stats.snapshot() }

// SetObs attaches an observability bundle (nil detaches). Call before the
// session starts; the hooks themselves never allocate.
func (s *InputSync) SetObs(o *obs.SessionObs) { s.tele = o }

// SetJournal attaches an input-journey span journal (nil detaches). Call
// before the session starts; every stamp is nil-safe and alloc-free.
func (s *InputSync) SetJournal(j *span.Journal) {
	s.journal = j
	s.batch.Reset(j)
}

// ReportExec records that this site began executing frame at instant at. The
// report rides on every subsequent outgoing sync message (execFrame/execTime)
// and stamps the local journal, so both sites' span timelines close. The
// frame loop calls it once per frame, right at the frame's begin.
func (s *InputSync) ReportExec(frame int, at time.Time) {
	s.lastExecFrame = frame
	s.lastExecTime = microsSince(s.epoch, at)
	s.haveExec = true
	s.batch.Executed(int64(frame), at)
}

// LastRcv returns LastRcvFrame for a player site (0 for non-player sites).
func (s *InputSync) LastRcv(site int) int {
	if site < 0 || site >= len(s.lastRcv) {
		return 0
	}
	return s.lastRcv[site]
}

// put merges one player's partial input into the buffer slot for frame f
// (paper: IBuf[f](SET[k]) = I(SET[k])). Writes below the ring's retired
// edge are stale retransmissions and are dropped.
func (s *InputSync) put(f, player int, input uint16) {
	if s.ibuf.merge(f, playerMasks[player], input) {
		if w := int64(s.ibuf.window()); w > s.stats.bufPeak.Load() {
			s.stats.bufPeak.Store(w)
		}
	}
}

// maxFrameAhead bounds how far beyond the local pointer a received frame may
// reach. A correct peer cannot run ahead of us by more than the mutual local
// lag (it needs our inputs to progress), so anything further is hostile or
// corrupt and must not balloon the buffer. The bound follows the live lag —
// an adaptive-lag session that raised the lag above cfg.BufFrame legitimately
// runs that much further ahead — but never shrinks below the configured
// BufFrame, so frames sent before a lag reduction are still accepted.
func (s *InputSync) maxFrameAhead() int {
	lag := s.lag
	if s.cfg.BufFrame > lag {
		lag = s.cfg.BufFrame
	}
	return s.pointer + 2*lag + maxInputsPerMsg
}

// get returns the merged input buffered for frame f, or (0, false) outside
// the ring window — the frame was retired, or nothing has arrived for it.
// The first BufFrame frames of a session are never written (local lag), so
// in-window-but-unwritten frames simply do not exist: reads of them report
// ok=false and the input is an authoritative zero by protocol definition.
func (s *InputSync) get(f int) (uint16, bool) {
	return s.ibuf.get(f)
}

// retire slides the ring's retired edge to the first frame someone may still
// need: the local delivery pointer, any peer's first unacknowledged frame
// (retransmission source — only players retransmit), and the external retain
// floor. Called after deliveries and ack advances; each is monotone, so the
// edge never moves backward.
func (s *InputSync) retire() {
	edge := s.pointer
	if !s.cfg.IsObserver() {
		for _, p := range s.peerList {
			if a := p.lastAck + 1; a < edge {
				edge = a
			}
		}
	}
	if s.retainFloor < edge {
		edge = s.retainFloor
	}
	s.ibuf.retire(edge)
}

// SetRetainFloor pins buffered frames >= f against retirement. The rollback
// baseline maintains it at its confirmation frontier, because reconciliation
// re-reads inputs of frames that lockstep would have discarded the moment
// they were delivered and acknowledged.
func (s *InputSync) SetRetainFloor(f int) {
	s.retainFloor = f
}

// SyncInput is Algorithm 2: buffer the local input for frame F+BufFrame,
// exchange messages until every player's input for frame F is present, and
// return the merged input. For observers the local input is ignored.
//
// On a network or peer failure the call blocks, freezing the game, exactly
// as §3.1 prescribes — unless Config.WaitTimeout bounds the wait, in which
// case it returns ErrWaitTimeout.
func (s *InputSync) SyncInput(input uint16, frame int) (uint16, error) {
	if frame != s.pointer {
		return 0, fmt.Errorf("core: SyncInput frame %d, expected %d (frames must be sequential)", frame, s.pointer)
	}

	// Lines 1-5: buffer the local partial input, delayed by the local
	// lag. When the lag was just raised (adaptive mode), the skipped
	// frames are filled with the same input so the remote site is never
	// starved; when it was lowered, inputs that would land on
	// already-submitted frames are dropped until the pointer catches up.
	if !s.cfg.IsObserver() {
		lagF := frame + s.lag
		if s.lastRcv[s.cfg.SiteNo] < lagF {
			pressedAt := time.Time{}
			if s.journal != nil {
				pressedAt = s.clock.Now()
			}
			for f := s.lastRcv[s.cfg.SiteNo] + 1; f <= lagF; f++ {
				s.put(f, s.cfg.SiteNo, input)
				s.batch.Pressed(int64(f), pressedAt)
			}
			s.lastRcv[s.cfg.SiteNo] = lagF
			s.ownRcvPub.Store(int64(lagF))
		}
	}

	// Lines 6-21: exchange messages until the exit condition holds.
	var deadline time.Time
	if s.cfg.WaitTimeout > 0 {
		deadline = s.clock.Now().Add(s.cfg.WaitTimeout)
	}
	waited := false
	s.lastWait = 0
	waitStart := s.clock.Now()
	for {
		s.Pump()
		if s.readyLocked() {
			break
		}
		if !waited {
			waited = true
			s.stats.waits.Add(1)
		}
		if s.cfg.WaitTimeout > 0 && s.clock.Now().After(deadline) {
			return 0, fmt.Errorf("%w: frame %d still missing inputs (have %v)", ErrWaitTimeout, frame, s.lastRcv)
		}
		s.idle(deadline)
	}
	if waited {
		now := s.clock.Now()
		d := now.Sub(waitStart)
		s.lastWait = d
		s.stats.waitTimeNs.Add(int64(d))
		s.tele.Stall(frame, now, d)
	}

	// Lines 22-23.
	merged, _ := s.get(s.pointer)
	s.pointer++
	s.retire()
	// One journal-lock round trip applies every hop stamped this frame.
	s.batch.Flush()
	return merged, nil
}

// idle parks a blocked SyncInput until its next poll. Polls fall on a grid
// of pollInterval steps from the wait's start, which is where the paper's
// consumer thread would wake. When it can, the site naps on its bell past
// every grid point at which a poll would find nothing: one is worth making
// only once a datagram has arrived, a paced send or a timer of some peer's
// conn stack is due, or the WaitTimeout deadline has passed. Arrivals ring
// the bell, which moves the wake-up to the first grid point at or after
// them; the rest are known in advance. Events run before an actor due at
// the same instant, so the polls that remain see exactly what they would
// have seen on the full grid.
func (s *InputSync) idle(deadline time.Time) {
	if !s.napReady() {
		s.clock.Sleep(pollInterval)
		return
	}
	now, step := s.clock.Now(), pollInterval
	// steps counts the grid points up to the first at or after at.
	steps := func(at time.Time) int64 {
		d := at.Sub(now)
		if d <= step {
			return 1
		}
		return int64((d-1)/step) + 1
	}
	n := steps(now.Add(s.cfg.SendInterval)) // no peer sends later than this
	for _, p := range s.peerList {
		n = min(n, steps(p.lastSend.Add(s.cfg.SendInterval)))
		if at, ok := p.notifier.NextTimer(); ok {
			n = min(n, steps(at))
		}
	}
	if s.cfg.WaitTimeout > 0 {
		// The wait times out at the first poll strictly after the deadline.
		n = min(n, int64(deadline.Sub(now)/step)+1)
	}
	s.bell.Nap(n, step)
}

// napReady reports whether idle may nap: every peer's conn stack rings the
// bell on arrival. It arms the peers added since it last ran (late joiners
// arrive mid-session); one whose stack cannot ring turns napping off for
// the rest of the session.
func (s *InputSync) napReady() bool {
	for s.bell != nil && s.armed < len(s.peerList) {
		p := s.peerList[s.armed]
		n, ok := p.Conn.(transport.Notifier)
		if !ok || !n.NotifyArrival(s.virt, s.bell.Ring) {
			s.bell = nil
			break
		}
		p.notifier = n
		s.armed++
	}
	return s.bell != nil
}

// FlushSpans applies any journal stamps still batched on the hot path. The
// drain and handshake paths call it after pumping the protocol outside
// SyncInput, which otherwise owns the per-frame flush.
func (s *InputSync) FlushSpans() { s.batch.Flush() }

// completeThrough returns the highest frame for which every player's input
// is buffered — the upper bound of what may be forwarded to observers.
func (s *InputSync) completeThrough() int {
	min := int(^uint(0) >> 1)
	for k := 0; k < s.cfg.NumPlayers; k++ {
		if s.lastRcv[k] < min {
			min = s.lastRcv[k]
		}
	}
	return min
}

// readyLocked is the loop exit condition (line 21), generalized: every
// player's inputs for the pointer frame have been received.
func (s *InputSync) readyLocked() bool {
	for k := 0; k < s.cfg.NumPlayers; k++ {
		if s.lastRcv[k] < s.pointer {
			return false
		}
	}
	return true
}

// Pump performs one round of non-blocking protocol work: paced sends (lines
// 7-11) and receive processing (lines 12-20). The frame loop calls it via
// SyncInput; Session.Drain and the handshake call it directly.
func (s *InputSync) Pump() {
	now := s.clock.Now()
	for _, p := range s.peerList {
		if now.Sub(p.lastSend) >= s.cfg.SendInterval {
			s.sendTo(p, now)
		}
	}
	for _, p := range s.peerList {
		for {
			raw, ok := p.Conn.TryRecv()
			if !ok {
				break
			}
			s.handle(p, raw)
		}
	}
}

// sendTo builds and transmits one sync message to peer p: an ack for
// everything received from p plus every own input p has not acknowledged.
func (s *InputSync) sendTo(p *peerState, now time.Time) {
	m := syncMsg{
		Sender:   s.cfg.SiteNo,
		SendTime: microsSince(s.epoch, now),
	}
	if p.Site < s.cfg.NumPlayers {
		m.Ack = int32(s.lastRcv[p.Site])
	} else {
		m.Ack = -1 // observers contribute no inputs worth acking
	}
	if p.haveEcho {
		m.HasEcho = true
		m.EchoTime = p.echoTime
		m.EchoDelay = uint32(now.Sub(p.echoRecvAt) / time.Microsecond)
	}
	if s.haveExec {
		m.HasExec = true
		m.ExecFrame = int32(s.lastExecFrame)
		m.ExecTime = s.lastExecTime
	}

	// sd[1]..sd[2]: the unacked input backlog. To player peers a player
	// sends its own partial inputs; to observer peers it forwards the
	// complete merged words instead (every player's bits), so a spectator
	// can follow the game through a single connection.
	forwarding := !s.cfg.IsObserver() && p.Site >= s.cfg.NumPlayers
	from, to := p.lastAck+1, -1
	switch {
	case forwarding:
		to = s.completeThrough()
	case !s.cfg.IsObserver():
		to = s.lastRcv[s.cfg.SiteNo]
	}
	if to-from+1 > maxInputsPerMsg {
		to = from + maxInputsPerMsg - 1
	}
	if to < from {
		// Keepalive: ack + RTT echo only.
		m.From, m.To = int32(s.pointer), int32(s.pointer-1)
	} else {
		m.From, m.To = int32(from), int32(to)
		m.Inputs = s.sendInputs[:0]
		for f := from; f <= to; f++ {
			word, _ := s.get(f) // unwritten early frames read as 0
			if !forwarding {
				word &= playerMasks[s.cfg.SiteNo]
			}
			m.Inputs = append(m.Inputs, word)
		}
		s.sendInputs = m.Inputs // keep any growth for the next send
		m.Merged = forwarding
	}
	s.sendBuf = encodeSync(s.sendBuf, m)
	if err := p.Conn.Send(s.sendBuf); err != nil {
		// Unreachable peers behave like packet loss: retransmission
		// covers recovery once the connection heals.
		return
	}
	p.lastSend = now
	s.stats.msgsSent.Add(1)
	s.stats.bytesSent.Add(int64(len(s.sendBuf)))
	s.stats.inputsSent.Add(int64(len(m.Inputs)))
	s.tele.InputSend(s.pointer, now, len(s.sendBuf))
	if !forwarding && len(m.Inputs) > 0 {
		s.batch.SendRange(int64(m.From), int64(m.To), now)
	}
}

// handle processes one received datagram from peer p (lines 12-20).
func (s *InputSync) handle(p *peerState, raw []byte) {
	s.stats.bytesRcvd.Add(int64(len(raw)))
	if len(raw) == 0 {
		s.stats.malformed.Add(1)
		return
	}
	switch raw[0] {
	case msgSync:
		m, err := decodeSyncInto(raw, s.rcvInputs)
		if err != nil {
			s.stats.malformed.Add(1)
			return
		}
		if m.Inputs != nil {
			s.rcvInputs = m.Inputs // keep any growth for the next receive
		}
		s.handleSync(p, m)
	case msgHash:
		sender, frame, hash, err := decodeHash(raw)
		if err != nil {
			s.stats.malformed.Add(1)
			return
		}
		if s.OnHash != nil {
			s.OnHash(sender, frame, hash)
		}
	case msgReady, msgGo, msgJoin, msgSnapChunk, msgSnapAck:
		// Session-level traffic arriving after the handshake (stray
		// retransmissions); ignore.
	default:
		s.stats.malformed.Add(1)
	}
}

func (s *InputSync) handleSync(p *peerState, m syncMsg) {
	s.stats.msgsRcvd.Add(1)
	now := s.clock.Now()
	s.tele.InputRecv(int(m.To), now, len(m.Inputs))

	// RTT sample: the peer echoed our sendTime together with how long it
	// held it. rtt = elapsed since we stamped it, minus the hold. HasEcho
	// is an explicit wire bit, so a timestamp that legitimately reads 0 µs
	// (stamped exactly at the epoch, echoed immediately) still yields a
	// sample instead of being mistaken for "no echo yet".
	if m.HasEcho {
		elapsed := time.Duration(microsSince(s.epoch, now)-m.EchoTime) * time.Microsecond
		hold := time.Duration(m.EchoDelay) * time.Microsecond
		if sample := elapsed - hold; sample >= 0 && sample < time.Minute {
			p.rtt.Sample(sample)
			s.tele.RTTSample(sample)
			// The same four instants are an NTP exchange: they bound the
			// peer's clock offset, which maps its timestamps (send instants,
			// exec reports) onto the local timeline for the span journal.
			p.offset.AddEcho(m.EchoTime, m.EchoDelay, m.SendTime, microsSince(s.epoch, now))
		}
	}
	// Remember the peer's freshest timestamp to echo back.
	p.echoTime = m.SendTime
	p.echoRecvAt = now
	p.haveEcho = true

	if int(m.To) > s.maxFrameAhead() {
		// Frames impossibly far in the future: drop the message (a
		// correct peer retransmits; a hostile one must not make us
		// allocate unboundedly).
		s.stats.malformed.Add(1)
		return
	}

	switch {
	case m.Merged && s.cfg.IsObserver() && m.Sender < s.cfg.NumPlayers && m.To >= m.From:
		// Forwarded stream: complete input words from one player. Writes
		// below the ring's retired edge are stale and dropped by put.
		for i, in := range m.Inputs {
			f := int(m.From) + i
			for k := 0; k < s.cfg.NumPlayers; k++ {
				s.put(f, k, in)
			}
		}
		// A merged word advances every player's frontier at once; split
		// the payload into fresh vs retransmitted words by the actual
		// advance delta, exactly like the player path below.
		prev := s.lastRcv[0]
		for k := 1; k < s.cfg.NumPlayers; k++ {
			if s.lastRcv[k] < prev {
				prev = s.lastRcv[k]
			}
		}
		if int(m.To) > prev {
			fresh := int(m.To) - prev
			if fresh > len(m.Inputs) {
				fresh = len(m.Inputs)
			}
			s.stats.inputsFresh.Add(int64(fresh))
			s.stats.inputsDup.Add(int64(len(m.Inputs) - fresh))
			for k := 0; k < s.cfg.NumPlayers; k++ {
				if int(m.To) > s.lastRcv[k] {
					s.lastRcv[k] = int(m.To)
					s.rcvAt[k] = now
				}
			}
		} else {
			s.stats.inputsDup.Add(int64(len(m.Inputs)))
		}

	case !m.Merged && m.Sender < s.cfg.NumPlayers && m.To >= m.From:
		// Line 13: merge the peer's partial inputs (idempotent
		// overwrite suppresses duplicates).
		for i, in := range m.Inputs {
			s.put(int(m.From)+i, m.Sender, in)
		}
		// Lines 14-16.
		if prev := s.lastRcv[m.Sender]; int(m.To) > prev {
			s.stats.inputsFresh.Add(int64(int(m.To) - prev))
			s.stats.inputsDup.Add(int64(len(m.Inputs) - (int(m.To) - prev)))
			s.lastRcv[m.Sender] = int(m.To)
			// For site 0 this is MasterRcvTime (§3.2): when the
			// freshest master input arrived.
			s.rcvAt[m.Sender] = now
			if s.journal != nil {
				// Stamp the freshly arrived frames. The peer's send instant
				// maps to the local clock once the offset estimate exists
				// (0 = unmapped: the span keeps the local receive instants
				// but yields no one-way latency sample).
				remoteNs := s.mapRemoteMicros(p, m.SendTime, now)
				for f := prev + 1; f <= int(m.To); f++ {
					s.batch.Recv(int64(f), now, remoteNs)
				}
			}
		} else {
			s.stats.inputsDup.Add(int64(len(m.Inputs)))
		}
	}

	// The peer's exec report closes cross-site spans: its begin instant of
	// ExecFrame, mapped onto the local clock, is both this frame's remote
	// execution stamp (skew) and — shifted by the local lag — the press
	// instant of the input taking effect at ExecFrame+lag (end-to-end
	// cross-site input latency).
	if m.HasExec && s.journal != nil {
		if remoteNs := s.mapRemoteMicros(p, m.ExecTime, now); remoteNs > 0 {
			s.batch.RemoteExec(int64(m.ExecFrame), remoteNs, int64(s.lag))
		}
	}

	// Lines 17-19. An advanced ack may free buffered frames for reuse.
	if int(m.Ack) > p.lastAck {
		p.lastAck = int(m.Ack)
		s.republishAcks()
		s.retire()
	}
}

// mapRemoteMicros maps a peer microsecond stamp onto the local nanosecond
// timeline through the peer's clock-offset estimate; 0 when no estimate
// exists yet (or the mapping lands before the epoch).
func (s *InputSync) mapRemoteMicros(p *peerState, stamp uint32, now time.Time) int64 {
	off, ok := p.offset.OffsetMicros()
	if !ok {
		return 0
	}
	return span.MapRemoteMicros(stamp, off, microsSince(s.epoch, now), now.Sub(s.epoch).Nanoseconds())
}

// MasterView is the slave's knowledge of the master site's progress, the
// inputs to Algorithm 4.
type MasterView struct {
	// LastRcvFrame is LastRcvFrame[0]: the newest master frame received.
	LastRcvFrame int
	// RcvTime is when that input arrived (MasterRcvTime).
	RcvTime time.Time
	// RTT is the smoothed round-trip estimate to the master.
	RTT time.Duration
	// OK reports whether the view is usable (something was received and
	// an RTT sample exists).
	OK bool
}

// MasterView assembles the current master view. On the master itself OK is
// always false (Algorithm 4 sets SyncAdjustTimeDelta to zero there).
func (s *InputSync) MasterView() MasterView {
	if s.cfg.SiteNo == 0 {
		return MasterView{}
	}
	master, ok := s.peers[0]
	rcvAt := s.rcvAt[0]
	if !ok || rcvAt.IsZero() || !master.rtt.Valid() {
		return MasterView{}
	}
	return MasterView{
		LastRcvFrame: s.lastRcv[0],
		RcvTime:      rcvAt,
		RTT:          master.rtt.Estimate(),
		OK:           true,
	}
}

// RemoteFrameEstimate extrapolates player k's current frame from its
// freshest received input, the time since, and the transit time (RTT/2, as
// in §3.2) — used by the rollback baseline's timesync. ok is false before
// anything was received.
func (s *InputSync) RemoteFrameEstimate(k int) (frame float64, ok bool) {
	if k < 0 || k >= len(s.rcvAt) || s.rcvAt[k].IsZero() {
		return 0, false
	}
	at := s.rcvAt[k]
	elapsed := s.clock.Now().Sub(at)
	if p, direct := s.peers[k]; direct && p.rtt.Valid() {
		elapsed += p.rtt.Estimate() / 2
	}
	return float64(s.lastRcv[k]) + float64(elapsed)/float64(timePerFrame), true
}

// AllAcked reports whether every peer has acknowledged this site's inputs
// through the final buffered frame — the drain-completion condition. Reads
// only published atomics, so it is safe to poll from any goroutine while
// the frame loop runs (and while late joiners are being added).
func (s *InputSync) AllAcked() bool {
	if s.cfg.IsObserver() {
		return true
	}
	return s.minAckPub.Load() >= s.ownRcvPub.Load()
}

// --- Hooks for the rollback baseline (no-lag input exchange) -----------

// RecordLocal buffers this site's input for frame f without the local-lag
// shift and without blocking — the rollback baseline's replacement for
// SyncInput's lines 1-5. Frames must be recorded in order.
func (s *InputSync) RecordLocal(f int, input uint16) {
	if s.cfg.IsObserver() || s.lastRcv[s.cfg.SiteNo] >= f {
		return
	}
	s.put(f, s.cfg.SiteNo, input)
	s.lastRcv[s.cfg.SiteNo] = f
	s.ownRcvPub.Store(int64(f))
}

// Advance moves the delivery pointer forward without delivering (the
// rollback baseline executes frames speculatively and never blocks on the
// pointer). The pointer also anchors the hostile-range guard and the ring's
// retired edge.
func (s *InputSync) Advance(frame int) {
	if frame > s.pointer {
		s.pointer = frame
		s.retire()
	}
}

// InputAt returns the merged input currently buffered for frame f. Bits of
// players whose inputs have not arrived read as their last-put value (zero
// if none) — callers decide how to predict. ok is false when f is outside
// the ring window (retired, or nothing buffered yet): the value is then the
// sentinel 0, not an authoritative input, and callers must not treat it as
// one.
func (s *InputSync) InputAt(f int) (input uint16, ok bool) { return s.get(f) }

// AuthoritativeThrough returns the highest frame for which every player's
// real input is buffered.
func (s *InputSync) AuthoritativeThrough() int { return s.completeThrough() }

// LastWait reports how long the most recent SyncInput call blocked (0 when
// it did not). Only meaningful from the frame loop's own goroutine.
func (s *InputSync) LastWait() time.Duration { return s.lastWait }

// Lag returns the current local lag in frames. Safe to call from any
// goroutine (it reads a published mirror of the frame loop's value).
func (s *InputSync) Lag() int { return int(s.lagPub.Load()) }

// SetLag changes the local lag (adaptive-lag ablation). Values below zero
// clamp to zero. The change takes effect at the next SyncInput: a raise
// duplicates the current input over the skipped frames; a reduction drops
// local inputs until the schedule catches up.
func (s *InputSync) SetLag(n int) {
	if n < 0 {
		n = 0
	}
	s.lag = n
	s.lagPub.Store(int64(n))
}

// FlushAcks force-sends one sync message to every peer immediately,
// bypassing the 20 ms pacing. Called on the way out of Drain/Settle so the
// final acknowledgement reaches peers that are still waiting for it —
// otherwise the last site to finish burns its whole drain timeout.
func (s *InputSync) FlushAcks() {
	now := s.clock.Now()
	for _, p := range s.peerList {
		s.sendTo(p, now)
	}
	s.batch.Flush()
}

// RTTTo returns the smoothed RTT estimate toward a peer (0 if none yet).
func (s *InputSync) RTTTo(site int) time.Duration {
	if p, ok := s.peers[site]; ok && p.rtt.Valid() {
		return p.rtt.Estimate()
	}
	return 0
}
