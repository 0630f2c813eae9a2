package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/span"
	"retrolock/internal/vclock"
)

// Session wires a machine, an InputSync and a Pacer into the paper's
// Algorithm 1 loop:
//
//	repeat
//	    BeginFrameTiming()
//	    I  = GetInput()
//	    I' = SyncInput(I, Frame)
//	    S' = Transition(I', S)
//	    EndFrameTiming()
//	    Frame++
//	until end of game
type Session struct {
	cfg     Config
	clock   vclock.Clock
	sync    *InputSync
	pacer   Pacer
	machine Machine

	// frame is the next frame to execute. The frame loop is the only
	// writer; atomic access lets Frame() and registry gauges poll it live.
	frame atomic.Int64

	// tele is the optional observability bundle (nil-safe hooks).
	tele *obs.SessionObs

	// Adaptive-lag ablation state (adaptive is nil when disabled; the
	// counters are atomic so LagStats may be polled while frames run).
	adaptive   *AdaptiveLag
	lagChanges atomic.Int64
	lagSum     atomic.Int64

	// Divergence detection (nil when disabled).
	hashes *hashLog

	// Black-box flight recorder (nil when none is attached; see
	// SetFlightRecorder). stallThreshold caches the recorder's stall
	// trigger so the frame loop compares a plain field; stallFired keeps
	// the trigger one-shot; desyncs is atomic for live metric scrapes.
	flight         FlightRecorder
	stallThreshold time.Duration
	stallFired     bool
	desyncs        atomic.Int64

	// Late-join serving state.
	joiners map[int]*joinTransfer

	// queuedJoiners holds peers handed in from other goroutines (e.g. a
	// live accept loop); RunFrames admits them at frame boundaries.
	queuedMu      sync.Mutex
	queuedJoiners []Peer
}

// joinTransfer tracks one in-progress snapshot hand-off to a late joiner.
type joinTransfer struct {
	peer   *peerState
	chunks [][]byte
	frame  int
	next   int
	acked  bool
	lastTx time.Time
}

// FrameInfo is delivered to the observer callback after each executed frame.
type FrameInfo struct {
	// Frame is the executed frame number.
	Frame int
	// Start is the BeginFrameTiming instant of this frame.
	Start time.Time
	// Input is the merged input word fed to the machine.
	Input uint16
	// Hash is the machine state hash after the transition.
	Hash uint64
}

// SessionOption customizes a Session.
type SessionOption func(*Session)

// WithPacer substitutes the frame pacer (e.g. NaiveTimer for the ablation).
func WithPacer(p Pacer) SessionOption {
	return func(s *Session) { s.pacer = p }
}

// AdaptiveLag configures the adaptive-local-lag ablation: the lag tracks
// ceil((RTT/2 + Margin) / TimePerFrame), re-evaluated every Every frames and
// clamped to [Min, Max]. The paper argues against this design (§4.2: "it
// does not pay off"); the ablation quantifies the argument.
type AdaptiveLag struct {
	Min, Max int
	Margin   time.Duration
	Every    int // frames between re-evaluations (default 60)
}

// WithAdaptiveLag enables adaptive lag on the session.
func WithAdaptiveLag(cfg AdaptiveLag) SessionOption {
	if cfg.Every <= 0 {
		cfg.Every = 60
	}
	if cfg.Max <= 0 {
		cfg.Max = 30
	}
	return func(s *Session) { s.adaptive = &cfg }
}

// NewSession builds a session for one site. epoch anchors message
// timestamps (any instant; the clock's start works well).
func NewSession(cfg Config, clock vclock.Clock, epoch time.Time, machine Machine, peers []Peer, opts ...SessionOption) (*Session, error) {
	if machine == nil {
		return nil, errors.New("core: nil machine")
	}
	sync, err := NewInputSync(cfg, clock, epoch, peers)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:     sync.Config(),
		clock:   clock,
		sync:    sync,
		pacer:   NewFrameTimer(sync.Config(), clock),
		machine: machine,
		joiners: make(map[int]*joinTransfer),
	}
	s.frame.Store(int64(sync.Config().StartFrame))
	if interval := s.cfg.HashInterval; interval > 0 {
		s.hashes = newHashLog(interval)
		sync.OnHash = s.hashes.remote
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Sync exposes the input-sync state (stats, RTT, master view).
func (s *Session) Sync() *InputSync { return s.sync }

// Frame reports the next frame to execute. Safe to call from any goroutine.
func (s *Session) Frame() int { return int(s.frame.Load()) }

// SetObs attaches an observability bundle to the session and its sync
// module (nil detaches). Call before the frame loop starts.
func (s *Session) SetObs(o *obs.SessionObs) {
	s.tele = o
	s.sync.SetObs(o)
}

// SetJournal attaches an input-journey span journal to the session and its
// sync module (nil detaches). Call before the frame loop starts; every stamp
// on the hot path is nil-safe and alloc-free (see internal/span).
func (s *Session) SetJournal(j *span.Journal) { s.sync.SetJournal(j) }

// handshakeResendEvery paces READY/GO retransmissions during startup.
const handshakeResendEvery = 10 * time.Millisecond

// Handshake runs the session-control protocol (§3.2): non-master sites
// announce READY until the master's GO arrives; the master waits for every
// peer's READY and then broadcasts GO. The two sites therefore start within
// one round trip of each other. Sync messages double as an implicit GO so a
// lost GO cannot wedge a slave.
func (s *Session) Handshake(timeout time.Duration) error {
	deadline := s.clock.Now().Add(timeout)
	if s.cfg.SiteNo == 0 {
		ready := make(map[int]bool, len(s.sync.peers))
		var lastTx time.Time
		for len(ready) < len(s.sync.peers) {
			if s.clock.Now().After(deadline) {
				return fmt.Errorf("core: handshake timed out with %d/%d peers ready", len(ready), len(s.sync.peers))
			}
			for _, p := range s.sync.peerList {
				for {
					raw, ok := p.Conn.TryRecv()
					if !ok {
						break
					}
					if len(raw) >= 2 && raw[0] == msgReady {
						ready[p.Site] = true
					}
				}
			}
			// Nudge slow peers: an early GO to already-ready peers
			// releases them while the rest report in.
			now := s.clock.Now()
			if now.Sub(lastTx) >= handshakeResendEvery {
				lastTx = now
				for _, p := range s.sync.peerList {
					if ready[p.Site] {
						_ = p.Conn.Send(encodeCtl(msgGo, s.cfg.SiteNo))
					}
				}
			}
			s.clock.Sleep(pollInterval)
		}
		// Everyone is ready: broadcast GO a few times for loss cover.
		for i := 0; i < 3; i++ {
			for _, p := range s.sync.peerList {
				_ = p.Conn.Send(encodeCtl(msgGo, s.cfg.SiteNo))
			}
		}
		return nil
	}

	// Non-master: READY until GO (or any sync message) appears.
	var lastTx time.Time
	for {
		if s.clock.Now().After(deadline) {
			return errors.New("core: handshake timed out waiting for the master's go")
		}
		now := s.clock.Now()
		if now.Sub(lastTx) >= handshakeResendEvery {
			lastTx = now
			for _, p := range s.sync.peerList {
				_ = p.Conn.Send(encodeCtl(msgReady, s.cfg.SiteNo))
			}
		}
		for _, p := range s.sync.peerList {
			for {
				raw, ok := p.Conn.TryRecv()
				if !ok {
					break
				}
				if len(raw) == 0 {
					continue
				}
				switch raw[0] {
				case msgGo:
					return nil
				case msgSync:
					// The game has started; treat as GO but do
					// not lose the message.
					s.sync.handle(p, raw)
					return nil
				}
			}
		}
		s.clock.Sleep(pollInterval)
	}
}

// RunFrames executes n frames of Algorithm 1. localInput supplies this
// site's raw input word per frame (ignored for observers); onFrame, when
// non-nil, observes each executed frame.
func (s *Session) RunFrames(n int, localInput func(frame int) uint16, onFrame func(FrameInfo)) error {
	defer s.recoverPanic()
	for i := 0; i < n; i++ {
		frame := int(s.frame.Load())
		// Admit queued joiners here, where the machine state is exactly
		// "before frame s.frame" — the snapshot frame AddJoiner records.
		s.admitQueuedJoiners()
		s.adaptLag(frame)
		s.pacer.BeginFrame(frame, s.sync.MasterView()) // step 5
		s.tele.FrameStart(frame, s.pacer.FrameStart())
		// The exec report: stamps the journal's Executed hop and piggybacks
		// this frame's begin instant on outgoing sync traffic so the peer
		// can close its cross-site spans.
		s.sync.ReportExec(frame, s.pacer.FrameStart())
		var raw uint16
		if localInput != nil {
			raw = localInput(frame) // step 6
		}
		merged, err := s.sync.SyncInput(raw, frame) // step 7
		if err != nil {
			err = fmt.Errorf("frame %d: %w", frame, err)
			s.reportFailure(err)
			return err
		}
		if w := s.sync.LastWait(); s.stallThreshold > 0 && w >= s.stallThreshold && !s.stallFired {
			// The wait cleared (the frame is progressing), but a freeze
			// this long is an incident worth a black-box dump even though
			// the session survives it.
			s.stallFired = true
			s.incident(IncidentStall, fmt.Errorf("core: frame %d stalled %v (threshold %v)", frame, w, s.stallThreshold))
		}
		s.machine.StepFrame(merged) // step 8 (and 9: the VM renders)
		if s.sync.journal != nil {
			s.sync.batch.Rendered(int64(frame), s.clock.Now())
			s.sync.batch.Flush()
		}
		hash := s.machine.StateHash()
		if s.flight != nil {
			s.flight.RecordFrame(frame, merged, hash, s.sync.LastWait())
		}
		if s.hashes != nil {
			s.hashes.record(frame, hash)
			if frame%s.cfg.HashInterval == 0 {
				s.broadcastHash(frame, hash)
			}
			if err := s.hashes.err(); err != nil {
				s.reportFailure(err)
				return err
			}
		}
		s.serveJoiners()
		if onFrame != nil {
			onFrame(FrameInfo{
				Frame: frame,
				Start: s.pacer.FrameStart(),
				Input: merged,
				Hash:  hash,
			})
		}
		s.pacer.EndFrame() // step 10
		s.tele.FrameEnd(frame, s.pacer.FrameStart(), s.clock.Now())
		s.frame.Add(1) // step 11
	}
	return nil
}

// adaptLag re-targets the local lag from the live RTT estimate (ablation).
func (s *Session) adaptLag(frame int) {
	a := s.adaptive
	if a == nil {
		return
	}
	s.lagSum.Add(int64(s.sync.Lag()))
	if frame%a.Every != 0 {
		return
	}
	// Use the worst RTT across player peers so N-site sessions stay safe.
	var rtt time.Duration
	for site := range s.sync.peers {
		if site < s.cfg.NumPlayers {
			if r := s.sync.RTTTo(site); r > rtt {
				rtt = r
			}
		}
	}
	if rtt == 0 {
		return // no estimate yet
	}
	tpf := s.cfg.TimePerFrame()
	target := int((rtt/2 + a.Margin + tpf - 1) / tpf)
	if target < a.Min {
		target = a.Min
	}
	if target > a.Max {
		target = a.Max
	}
	if target != s.sync.Lag() {
		s.sync.SetLag(target)
		if ft, ok := s.pacer.(*FrameTimer); ok {
			ft.SetBufFrame(target)
		}
		s.lagChanges.Add(1)
	}
}

// LagStats reports the adaptive-lag ablation's bookkeeping: how often the
// lag changed and its average over the executed frames (0, 0 when the
// ablation is off or nothing ran). Safe to call from any goroutine.
func (s *Session) LagStats() (changes int, avg float64) {
	executed := int(s.frame.Load()) - s.cfg.StartFrame
	if s.adaptive == nil || executed == 0 {
		return 0, 0
	}
	return int(s.lagChanges.Load()), float64(s.lagSum.Load()) / float64(executed)
}

func (s *Session) broadcastHash(frame int, hash uint64) {
	msg := encodeHash(s.cfg.SiteNo, frame, hash)
	for _, p := range s.sync.peerList {
		_ = p.Conn.Send(msg)
	}
}

// Diverged returns the first detected replica divergence, if any.
func (s *Session) Diverged() error {
	if s.hashes == nil {
		return nil
	}
	return s.hashes.err()
}

// QueueJoiner hands a late joiner to the session from another goroutine
// (e.g. a network accept loop). The session admits it at the next frame
// boundary; any error is reported through the joiner's own timeout since
// AddJoiner cannot fail once the peer is valid and unique.
func (s *Session) QueueJoiner(p Peer) {
	s.queuedMu.Lock()
	defer s.queuedMu.Unlock()
	s.queuedJoiners = append(s.queuedJoiners, p)
}

func (s *Session) admitQueuedJoiners() {
	s.queuedMu.Lock()
	queued := s.queuedJoiners
	s.queuedJoiners = nil
	s.queuedMu.Unlock()
	for _, p := range queued {
		// Duplicate or unsupported joins are dropped; the joiner's
		// JoinSession call times out rather than crashing the match.
		_, _ = s.AddJoiner(p)
	}
}

// drainQuiet is how long a draining site keeps serving after the last
// input-carrying message before deciding its peers are done.
const drainQuiet = 500 * time.Millisecond

// Drain keeps acknowledging and retransmitting after the frame loop so the
// peer can finish its own final frames. Without draining, a packet lost
// near the end would freeze the slower site forever.
//
// A site is ready to leave once every peer acked its inputs (observers have
// nothing to be acked for), but it must not leave the instant that happens:
// lockstep lets the sites finish up to BufFrame frames apart, so the
// faster site's acks arrive before the straggler has even sent its final
// inputs — leaving immediately would strand those inputs unacknowledged and
// burn the straggler's whole drain timeout. So a ready site lingers as a
// lame duck, answering retransmissions with acks (every paced keepalive
// carries the cumulative ack), until no input-carrying message has arrived
// for drainQuiet. Keepalives deliberately do not reset the quiet window: a
// peer sending only keepalives has nothing left unacknowledged, while one
// still retransmitting inputs is still owed acks.
func (s *Session) Drain(timeout time.Duration) {
	deadline := s.clock.Now().Add(timeout)
	inputsSeen := func() int {
		st := s.sync.Stats()
		return st.InputsFresh + st.InputsDup
	}
	last := inputsSeen()
	quietSince := s.clock.Now()
	for s.clock.Now().Before(deadline) {
		s.sync.Pump()
		if got := inputsSeen(); got != last {
			last = got
			quietSince = s.clock.Now()
		}
		ready := s.cfg.IsObserver() || s.sync.AllAcked()
		if ready && s.clock.Now().Sub(quietSince) >= drainQuiet {
			// Give the peers the acks they are waiting for before
			// leaving, or the slowest site sits out its whole timeout.
			s.sync.FlushAcks()
			return
		}
		s.clock.Sleep(pollInterval)
	}
	// Timed out: the protocol pumps above may have batched span stamps that
	// no SyncInput will ever flush.
	s.sync.FlushSpans()
}

// --- Late-joiner support (journal extension) ---------------------------

// snapResendEvery paces snapshot chunk retransmission.
const snapResendEvery = 50 * time.Millisecond

// AddJoiner starts streaming a savestate to a newly connected observer and
// includes it in subsequent input broadcasts. The machine must implement
// Snapshotter. Returns the frame the snapshot represents; the joiner must
// start executing at that frame.
func (s *Session) AddJoiner(p Peer) (int, error) {
	snap, ok := s.machine.(Snapshotter)
	if !ok {
		return 0, errors.New("core: machine does not support savestates")
	}
	if _, dup := s.sync.peers[p.Site]; dup {
		return 0, fmt.Errorf("core: site %d already connected", p.Site)
	}
	state := snap.Save()
	frame := int(s.frame.Load()) // next frame to execute; the state is "before frame s.frame"

	ps := &peerState{Peer: p, lastAck: frame - 1}
	s.sync.peers[p.Site] = ps
	s.sync.peerList = append(s.sync.peerList, ps)
	s.sync.republishAcks()

	// The memory image is mostly zeros; RLE typically collapses the ~9
	// chunk transfer into one or two datagrams.
	comp := rleCompress(state)
	var chunks [][]byte
	total := (len(comp) + SnapChunkPayload - 1) / SnapChunkPayload
	for i := 0; i < total; i++ {
		lo := i * SnapChunkPayload
		hi := lo + SnapChunkPayload
		if hi > len(comp) {
			hi = len(comp)
		}
		chunks = append(chunks, encodeSnapChunk(snapChunk{
			Sender: s.cfg.SiteNo,
			Frame:  int32(frame),
			Seq:    uint16(i),
			Total:  uint16(total),
			RawLen: uint32(len(state)),
			Data:   comp[lo:hi],
		}))
	}
	s.joiners[p.Site] = &joinTransfer{peer: ps, chunks: chunks, frame: frame}
	return frame, nil
}

// serveJoiners pushes pending snapshot chunks, a few per frame, and
// retransmits until the joiner acknowledges the full state.
func (s *Session) serveJoiners() {
	now := s.clock.Now()
	for site, j := range s.joiners {
		// Completion ack?
		if j.acked {
			delete(s.joiners, site)
			continue
		}
		if j.next < len(j.chunks) {
			// Initial streaming: up to 3 chunks per frame to bound
			// burstiness. lastTx advances with every burst, so once
			// the final chunk goes out the loss-recovery resend below
			// waits a full snapResendEvery instead of re-blasting the
			// whole chunk list on the same frame.
			for i := 0; i < 3 && j.next < len(j.chunks); i++ {
				_ = j.peer.Conn.Send(j.chunks[j.next])
				j.next++
				s.sync.stats.snapChunks.Add(1)
			}
			j.lastTx = now
		} else if now.Sub(j.lastTx) >= snapResendEvery {
			// All sent at least once but no ack yet: assume loss and
			// re-send the full state, paced by snapResendEvery.
			for _, c := range j.chunks {
				_ = j.peer.Conn.Send(c)
				s.sync.stats.snapChunks.Add(1)
			}
			j.lastTx = now
		}
		// The ack rides on the normal receive path; check for it here
		// because InputSync ignores snapshot traffic.
		for {
			raw, ok := j.peer.Conn.TryRecv()
			if !ok {
				break
			}
			if len(raw) >= 2 && raw[0] == msgSnapAck {
				j.acked = true
				break
			}
			s.sync.handle(j.peer, raw)
		}
	}
}

// ParseJoin reports whether a raw datagram is a late-join request, and from
// which site. Hosts that accept spectator connections (e.g. cmd/retroplay's
// accept loop) use it to identify newcomers before queueing them.
func ParseJoin(raw []byte) (site int, ok bool) {
	if len(raw) >= 2 && raw[0] == msgJoin {
		return int(raw[1]), true
	}
	return 0, false
}

// JoinSession connects a late joiner: it requests a snapshot from server,
// reassembles the savestate, restores the machine, and returns the start
// frame together with a ready-to-run observer session.
func JoinSession(cfg Config, clock vclock.Clock, epoch time.Time, machine Machine, server Peer, timeout time.Duration) (*Session, error) {
	snap, ok := machine.(Snapshotter)
	if !ok {
		return nil, errors.New("core: machine does not support savestates")
	}
	deadline := clock.Now().Add(timeout)
	var (
		chunks    map[int][]byte
		total     = -1
		snapFrame = -1
		rawLen    = 0
		lastReq   time.Time
	)
	chunks = make(map[int][]byte)
	for {
		if clock.Now().After(deadline) {
			return nil, fmt.Errorf("core: snapshot transfer timed out (%d/%d chunks)", len(chunks), total)
		}
		now := clock.Now()
		if now.Sub(lastReq) >= snapResendEvery {
			lastReq = now
			_ = server.Conn.Send(encodeCtl(msgJoin, cfg.SiteNo))
		}
		for {
			raw, ok := server.Conn.TryRecv()
			if !ok {
				break
			}
			if len(raw) == 0 || raw[0] != msgSnapChunk {
				continue // game traffic arrives once we are subscribed; drop for now
			}
			c, err := decodeSnapChunk(raw)
			if err != nil {
				continue
			}
			total = int(c.Total)
			snapFrame = int(c.Frame)
			rawLen = int(c.RawLen)
			chunks[int(c.Seq)] = c.Data
		}
		if total > 0 && len(chunks) == total {
			break
		}
		clock.Sleep(pollInterval)
	}
	var comp []byte
	for i := 0; i < total; i++ {
		part, ok := chunks[i]
		if !ok {
			return nil, fmt.Errorf("core: snapshot chunk %d missing after transfer", i)
		}
		comp = append(comp, part...)
	}
	state, err := rleDecompress(comp, rawLen)
	if err != nil {
		return nil, fmt.Errorf("core: decompressing snapshot: %w", err)
	}
	if err := snap.Restore(state); err != nil {
		return nil, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	// Confirm so the server stops retransmitting.
	for i := 0; i < 3; i++ {
		_ = server.Conn.Send(encodeCtl(msgSnapAck, cfg.SiteNo))
	}
	cfg.StartFrame = snapFrame
	return NewSession(cfg, clock, epoch, machine, []Peer{server})
}
