package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/vclock"
)

// RollbackSession is the timewarp baseline the paper rejects in §5:
// "Timewarp needs to rollback application states … It is not applicable for
// solving our problem because rolling back states of a distributed game
// without semantic knowledge can be expensive."
//
// This implementation makes that cost measurable. Instead of delaying local
// inputs by the local lag, each frame executes immediately with the local
// input plus a *prediction* of the remote inputs (each remote player is
// assumed to repeat its latest known input). When the real inputs arrive
// and contradict a prediction, the machine state is rolled back to the
// mispredicted frame via a full savestate — the only rollback available
// without semantic knowledge of the game — and replayed. The price the
// paper anticipates shows up directly in RollbackStats: a savestate per
// frame, plus re-emulated frames on every misprediction.
//
// The scheme is bounded by a prediction window: a site never runs more than
// PredictionWindow frames past the slowest confirmed remote frame, stalling
// like lockstep when the gap would grow beyond it.
type RollbackSession struct {
	cfg    Config
	window int
	clock  vclock.Clock
	sync   *InputSync
	mach   Machine
	snap   Snapshotter
	pacer  Pacer

	// frame is the next frame to execute; atomic so Frame() and registry
	// gauges may poll it while the loop runs.
	frame     atomic.Int64
	confirmed int // all frames <= confirmed used authoritative inputs
	states    map[int][]byte
	used      map[int]uint16

	// tele is the optional observability bundle (nil-safe hooks).
	tele *obs.SessionObs

	stats rollbackCounters
}

// RollbackStats quantifies the baseline's overheads. Like Stats it is a
// snapshot struct over atomic counters, safe to poll while frames run.
type RollbackStats struct {
	// Rollbacks counts restore+replay episodes.
	Rollbacks int
	// ReplayedFrames counts frames re-emulated during rollbacks.
	ReplayedFrames int
	// DeepestRollback is the largest restore distance, in frames.
	DeepestRollback int
	// PredictedFrames counts frames first executed with at least one
	// predicted (non-authoritative) input.
	PredictedFrames int
	// StallFrames counts frames delayed by the prediction window.
	StallFrames int
	// TimesyncSlept is the total extra sleep injected to stay in phase
	// with the slowest remote.
	TimesyncSlept time.Duration
	// SnapshotBytes is the total savestate volume written.
	SnapshotBytes int64
}

// rollbackCounters is the live, concurrently-pollable form of
// RollbackStats (single writer: the frame loop).
type rollbackCounters struct {
	rollbacks      atomic.Int64
	replayedFrames atomic.Int64
	deepest        atomic.Int64
	predicted      atomic.Int64
	stalls         atomic.Int64
	timesyncNs     atomic.Int64
	snapshotBytes  atomic.Int64
}

// DefaultPredictionWindow bounds speculation (GGPO-style systems use 7-8).
const DefaultPredictionWindow = 8

// NewRollbackSession builds the baseline for one site. The machine must
// support savestates. cfg.BufFrame is forced to zero (that is the point).
func NewRollbackSession(cfg Config, clock vclock.Clock, epoch time.Time, machine Machine, peers []Peer, window int) (*RollbackSession, error) {
	snap, ok := machine.(Snapshotter)
	if !ok {
		return nil, errors.New("core: rollback requires a Snapshotter machine")
	}
	if window <= 0 {
		window = DefaultPredictionWindow
	}
	cfg.BufFrame = -1 // explicit zero local lag
	sync, err := NewInputSync(cfg, clock, epoch, peers)
	if err != nil {
		return nil, err
	}
	// Unlike lockstep, rollback re-reads delivered frames while
	// reconciling; keep everything above the confirmation frontier
	// buffered (reconcile raises the floor as frames settle).
	sync.SetRetainFloor(-1)
	return &RollbackSession{
		cfg:    sync.Config(),
		window: window,
		clock:  clock,
		sync:   sync,
		mach:   machine,
		snap:   snap,
		// Plain CFPS pacing: rollback does not use Algorithm 4's
		// master/slave steering (a slave locking onto a stalled master
		// deadlocks the prediction window); phase balance comes from
		// timesync below instead.
		pacer:  NewNaiveTimer(sync.Config(), clock),
		states: make(map[int][]byte),
		used:   make(map[int]uint16),

		confirmed: -1,
	}, nil
}

// timesync implements the rollback world's pace balancing: the site that
// runs ahead of the slowest remote's estimated frame sleeps a fraction of
// the advantage each frame, so both sites converge on the same phase
// regardless of who started first (GGPO-style frame-advantage sync).
func (s *RollbackSession) timesync() {
	tpf := s.cfg.TimePerFrame()
	worst := 0.0
	for k := 0; k < s.cfg.NumPlayers; k++ {
		if k == s.cfg.SiteNo {
			continue
		}
		est, ok := s.sync.RemoteFrameEstimate(k)
		if !ok {
			continue
		}
		if adv := float64(s.frame.Load()) - est; adv > worst {
			worst = adv
		}
	}
	// Allow ~1 frame of natural skew; bleed off the rest gently (an
	// eighth per frame) so corrections do not oscillate.
	if worst > 1 {
		extra := time.Duration((worst - 1) / 8 * float64(tpf))
		if extra > tpf {
			extra = tpf
		}
		s.stats.timesyncNs.Add(int64(extra))
		s.clock.Sleep(extra)
	}
}

// SetObs attaches an observability bundle to the session and its sync
// module (nil detaches). Call before the frame loop starts.
func (s *RollbackSession) SetObs(o *obs.SessionObs) {
	s.tele = o
	s.sync.SetObs(o)
}

// bestInput merges, for frame f, every authoritative input with the
// repeat-last prediction for players whose input has not arrived. The sync
// buffer's retain floor tracks the confirmation frontier, so every frame
// read here is still in the ring window; an out-of-window read (ok=false)
// would mean the prediction basis was lost and degrades to predicting idle.
func (s *RollbackSession) bestInput(f int) (input uint16, predicted bool) {
	for k := 0; k < s.cfg.NumPlayers; k++ {
		mask := s.cfg.Masks[k]
		known := s.sync.LastRcv(k)
		switch {
		case known >= f:
			in, _ := s.sync.InputAt(f)
			input |= in & mask
		case known >= 0:
			in, _ := s.sync.InputAt(known)
			input |= in & mask
			predicted = true
		default:
			predicted = true // nothing known: predict idle
		}
	}
	return input, predicted
}

// reconcile validates executed-but-unconfirmed frames against newly arrived
// inputs, rolling back and replaying from the first misprediction.
func (s *RollbackSession) reconcile() {
	frame := int(s.frame.Load())
	limit := s.sync.AuthoritativeThrough()
	if limit > frame-1 {
		limit = frame - 1
	}
	for f := s.confirmed + 1; f <= limit; f++ {
		correct, _ := s.bestInput(f)
		if correct != s.used[f] {
			s.rollbackTo(f)
			break
		}
		s.confirmed = f
	}
	// Everything replayed after a rollback used fully authoritative
	// inputs up to limit.
	if s.confirmed < limit {
		s.confirmed = limit
	}
	// Frames below the confirmation frontier are settled for good;
	// release them from the input ring. bestInput may still read frame
	// `confirmed` itself (a player's freshest input as prediction basis),
	// so the floor sits at confirmed, not confirmed+1.
	s.sync.SetRetainFloor(s.confirmed)
	s.prune()
}

func (s *RollbackSession) rollbackTo(f int) {
	state, ok := s.states[f]
	if !ok {
		// Should be impossible: states are pruned only below confirmed.
		panic(fmt.Sprintf("core: rollback to frame %d without a savestate", f))
	}
	if err := s.snap.Restore(state); err != nil {
		panic(fmt.Sprintf("core: rollback restore failed: %v", err))
	}
	frame := int(s.frame.Load())
	s.stats.rollbacks.Add(1)
	depth := frame - f
	if int64(depth) > s.stats.deepest.Load() {
		s.stats.deepest.Store(int64(depth))
	}
	s.tele.Rollback(f, s.clock.Now(), depth)
	for g := f; g < frame; g++ {
		input, _ := s.bestInput(g)
		s.used[g] = input
		s.states[g] = s.snap.Save()
		s.stats.snapshotBytes.Add(int64(len(s.states[g])))
		s.mach.StepFrame(input)
		s.stats.replayedFrames.Add(1)
	}
}

func (s *RollbackSession) prune() {
	for f := range s.states {
		if f < s.confirmed {
			delete(s.states, f)
			delete(s.used, f)
		}
	}
}

// RunFrames executes n frames with zero input latency and speculative
// remote inputs. onFrame observes first executions only (not replays).
func (s *RollbackSession) RunFrames(n int, localInput func(frame int) uint16, onFrame func(FrameInfo)) error {
	var deadline time.Time
	for i := 0; i < n; i++ {
		frame := int(s.frame.Load())
		s.timesync()
		s.pacer.BeginFrame(frame, MasterView{})
		s.tele.FrameStart(frame, s.pacer.FrameStart())
		s.sync.Pump()
		s.reconcile()

		// Prediction window: stall (like lockstep) rather than run
		// unboundedly ahead of a slow or dead peer.
		if s.cfg.WaitTimeout > 0 {
			deadline = s.clock.Now().Add(s.cfg.WaitTimeout)
		}
		stalled := false
		for frame-(s.sync.AuthoritativeThrough()+1) >= s.window {
			if !stalled {
				stalled = true
				s.stats.stalls.Add(1)
			}
			if s.cfg.WaitTimeout > 0 && s.clock.Now().After(deadline) {
				return fmt.Errorf("%w: frame %d stalled at the prediction window (remote confirmed through %d)",
					ErrWaitTimeout, frame, s.sync.AuthoritativeThrough())
			}
			s.clock.Sleep(pollInterval)
			s.sync.Pump()
			s.reconcile()
		}

		var raw uint16
		if localInput != nil {
			raw = localInput(frame)
		}
		s.sync.RecordLocal(frame, raw)
		s.sync.Advance(frame)

		input, predicted := s.bestInput(frame)
		if predicted {
			s.stats.predicted.Add(1)
		}
		s.states[frame] = s.snap.Save()
		s.stats.snapshotBytes.Add(int64(len(s.states[frame])))
		s.mach.StepFrame(input)
		s.used[frame] = input

		if onFrame != nil {
			onFrame(FrameInfo{
				Frame: frame,
				Start: s.pacer.FrameStart(),
				Input: input,
				Hash:  s.mach.StateHash(),
			})
		}
		s.pacer.EndFrame()
		s.tele.FrameEnd(frame, s.pacer.FrameStart(), s.clock.Now())
		s.frame.Add(1)
	}
	return nil
}

// Settle keeps exchanging inputs after the frame loop until every executed
// frame is authoritative (applying any final corrections), so replicas can
// be compared. It also services peers still finishing their own frames.
func (s *RollbackSession) Settle(timeout time.Duration) error {
	deadline := s.clock.Now().Add(timeout)
	for {
		s.sync.Pump()
		s.reconcile()
		last := int(s.frame.Load()) - 1
		if s.confirmed >= last && s.sync.AllAcked() {
			s.sync.FlushAcks() // release peers waiting on our final ack
			return nil
		}
		if s.clock.Now().After(deadline) {
			if s.confirmed >= last {
				return nil // corrected; only acks outstanding
			}
			return fmt.Errorf("%w: settle incomplete (confirmed %d of %d)", ErrWaitTimeout, s.confirmed, last)
		}
		s.clock.Sleep(pollInterval)
	}
}
