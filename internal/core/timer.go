package core

import (
	"time"

	"retrolock/internal/vclock"
)

// Pacer is the frame-timing half of the sync module: BeginFrame/EndFrame
// bracket each iteration of Algorithm 1 (steps 5 and 10).
type Pacer interface {
	// BeginFrame records the frame start and, depending on the
	// implementation, folds in the master-pace correction (Algorithm 4).
	BeginFrame(frame int, mv MasterView)
	// EndFrame consumes the remainder of the frame's time budget
	// (Algorithm 3) and carries any overrun into the next frame.
	EndFrame()
	// FrameStart reports the instant recorded by the last BeginFrame.
	FrameStart() time.Time
}

// FrameTimer implements Algorithms 3 and 4. The master site (site 0) paces
// itself only by Algorithm 3; every other site additionally steers toward
// the master's estimated current frame, so a startup offset or transient
// stall is smoothed out by the slave instead of oscillating forever (§3.2).
type FrameTimer struct {
	clock    vclock.Clock
	bufFrame int
	master   bool

	adjust     time.Duration // AdjustTimeDelta
	frameStart time.Time     // CurrFrameStart
}

// NewFrameTimer builds the timer for one site of cfg.
func NewFrameTimer(cfg Config, clock vclock.Clock) *FrameTimer {
	cfg = cfg.withDefaults()
	return &FrameTimer{
		clock:    clock,
		bufFrame: cfg.BufFrame,
		master:   cfg.SiteNo == 0,
	}
}

// SetBufFrame updates the lag used by the master-frame estimate; the
// adaptive-lag ablation calls it whenever the lag changes.
func (t *FrameTimer) SetBufFrame(n int) { t.bufFrame = n }

// BeginFrame is Algorithm 4 (BeginFrameTiming).
func (t *FrameTimer) BeginFrame(frame int, mv MasterView) {
	now := t.clock.Now()
	t.frameStart = now

	// Master: SyncAdjustTimeDelta is always zero.
	if t.master || !mv.OK {
		return
	}
	// MasterFrame = LastRcvFrame[0] - BufFrame: the freshest received
	// master input already counts the local lag (§3.2).
	masterFrame := mv.LastRcvFrame - t.bufFrame
	// t = MasterRcvTime - RTT/2 estimates when the master sent it; the
	// elapsed time since then tells how far the master has advanced.
	sent := mv.RcvTime.Add(-mv.RTT / 2)
	elapsed := now.Sub(sent)
	t.adjust += time.Duration(frame-masterFrame)*timePerFrame - elapsed
}

// EndFrame is Algorithm 3 (EndFrameTiming).
func (t *FrameTimer) EndFrame() {
	end := t.frameStart.Add(timePerFrame + t.adjust)
	now := t.clock.Now()
	if end.Before(now) {
		// The frame overran; compensate in the following frames.
		t.adjust = end.Sub(now)
		return
	}
	t.adjust = 0
	t.clock.Sleep(end.Sub(now))
}

// FrameStart implements Pacer.
func (t *FrameTimer) FrameStart() time.Time { return t.frameStart }

// NaiveTimer is the ablation baseline: Algorithm 3 without Algorithm 4
// ("naive waiting"). With it, the earlier-starting site is perpetually
// penalized: its SyncInput waits slow it down, EndFrame speeds it back up,
// and the oscillation never settles (§3.2).
type NaiveTimer struct {
	clock      vclock.Clock
	adjust     time.Duration
	frameStart time.Time
}

// NewNaiveTimer builds the baseline pacer.
func NewNaiveTimer(clock vclock.Clock) *NaiveTimer {
	return &NaiveTimer{clock: clock}
}

// BeginFrame records the start time only.
func (t *NaiveTimer) BeginFrame(int, MasterView) { t.frameStart = t.clock.Now() }

// EndFrame is Algorithm 3, identical to FrameTimer.EndFrame.
func (t *NaiveTimer) EndFrame() {
	end := t.frameStart.Add(timePerFrame + t.adjust)
	now := t.clock.Now()
	if end.Before(now) {
		t.adjust = end.Sub(now)
		return
	}
	t.adjust = 0
	t.clock.Sleep(end.Sub(now))
}

// FrameStart implements Pacer.
func (t *NaiveTimer) FrameStart() time.Time { return t.frameStart }

var (
	_ Pacer = (*FrameTimer)(nil)
	_ Pacer = (*NaiveTimer)(nil)
)
