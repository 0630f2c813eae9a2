// Package core implements the paper's contribution: the sync module that
// turns a deterministic single-computer game VM into a distributed
// multi-computer game, transparently to the game.
//
// It contains faithful implementations of the paper's three algorithms:
//
//   - InputSync.SyncInput — Algorithm 2, logical consistency: local inputs
//     are delayed by a fixed local lag (BufFrame frames ≈ 100 ms at 60 FPS)
//     and merged with remote partial inputs; execution of a frame blocks
//     until every player's bits for that frame have arrived. Reliability is
//     built over UDP with cumulative acks and range retransmission.
//   - FrameTimer.EndFrame — Algorithm 3, frame pacing: each frame consumes
//     exactly TimePerFrame, and a frame that overran (because SyncInput had
//     to wait) is compensated by shortening the following frames.
//   - FrameTimer.BeginFrame — Algorithm 4, real-time consistency: the slave
//     site continuously estimates the master's current frame from the
//     freshest received message and RTT/2, and steers its own pace toward
//     it, so a startup offset is smoothed out instead of penalizing the
//     earlier site forever.
//
// Beyond the paper's two-site algorithm, the package implements the journal
// version's extensions (§6): N players with disjoint input masks, observer
// (spectator) sites that receive all inputs but contribute none, and late
// joiners bootstrapped from a chunked savestate transfer.
package core

import (
	"errors"
	"fmt"
	"time"

	"retrolock/internal/transport"
)

// Machine is the game VM seen by the sync layer — the paper's opaque
// Transition(I, S). The sync layer never interprets the input word and never
// inspects machine state beyond the convergence hash.
type Machine interface {
	// StepFrame performs one deterministic state transition with the
	// merged input word.
	StepFrame(input uint16)
	// StateHash digests the machine state, for convergence checking.
	StateHash() uint64
}

// Snapshotter is implemented by machines that support savestate transfer,
// enabling late joiners.
type Snapshotter interface {
	Save() []byte
	Restore([]byte) error
}

// Defaults from the paper (§3: BufFrame 6 at 60 FPS ≈ 100 ms local lag;
// §4.2: one outbound message every 20 ms).
const (
	DefaultBufFrame     = 6
	DefaultCFPS         = 60
	DefaultSendInterval = 20 * time.Millisecond
)

// pollInterval is how often a blocked wait re-checks for arrivals, modelling
// the consumer thread's scheduling quantum. On a vclock.Virtual whose every
// peer conn stack is a transport.Notifier, SyncInput keeps this grid but
// skips the re-checks that would find nothing: it wakes at the first grid
// point at or after an arrival, a paced send, a conn-stack timer or the
// WaitTimeout deadline.
const pollInterval = time.Millisecond

// ErrWaitTimeout is returned by SyncInput when remote inputs do not arrive
// within Config.WaitTimeout. With WaitTimeout zero the paper's behaviour
// applies: the site blocks ("freezing the game until it is recovered",
// §3.1).
var ErrWaitTimeout = errors.New("core: timed out waiting for remote inputs")

// Config describes one site of a session.
type Config struct {
	// SiteNo identifies this site. Sites 0..NumPlayers-1 are players;
	// higher numbers are observers. Site 0 is the timing master.
	SiteNo int

	// NumPlayers is the number of input-contributing sites. The paper's
	// system is NumPlayers = 2.
	NumPlayers int

	// Masks[k] is SET[k]: the input bits player k controls. Masks must be
	// disjoint. Nil defaults to the two-pad split {0x00FF, 0xFF00}.
	Masks []uint16

	// BufFrame is the local lag in frames (paper: 6 ≈ 100 ms at 60 FPS).
	// Zero selects the default; a negative value means an explicit zero
	// lag (used by the rollback baseline, which hides latency by
	// prediction instead of delay).
	BufFrame int

	// CFPS is the constant target frame rate (paper: 60).
	CFPS int

	// SendInterval is the outbound message pacing (paper §4.2: 20 ms).
	SendInterval time.Duration

	// WaitTimeout bounds a single SyncInput wait. Zero waits forever.
	WaitTimeout time.Duration

	// HashInterval is how often (in frames) sites exchange machine-state
	// digests to detect replica divergence. Zero uses
	// DefaultHashInterval; negative disables the exchange.
	HashInterval int

	// StartFrame is the first frame this site executes (0 for sites
	// present from the beginning; the snapshot frame for late joiners).
	StartFrame int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.NumPlayers == 0 {
		c.NumPlayers = 2
	}
	if c.Masks == nil {
		c.Masks = []uint16{0x00FF, 0xFF00}
	}
	if c.BufFrame == 0 {
		c.BufFrame = DefaultBufFrame
	} else if c.BufFrame < 0 {
		c.BufFrame = 0 // explicit zero lag
	}
	if c.CFPS == 0 {
		c.CFPS = DefaultCFPS
	}
	if c.SendInterval == 0 {
		c.SendInterval = DefaultSendInterval
	}
	if c.HashInterval == 0 {
		c.HashInterval = DefaultHashInterval
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.NumPlayers < 1 {
		return fmt.Errorf("core: NumPlayers %d < 1", c.NumPlayers)
	}
	if len(c.Masks) != c.NumPlayers {
		return fmt.Errorf("core: %d masks for %d players", len(c.Masks), c.NumPlayers)
	}
	var union uint16
	for k, m := range c.Masks {
		if m == 0 {
			return fmt.Errorf("core: player %d has an empty input mask", k)
		}
		if union&m != 0 {
			return fmt.Errorf("core: input masks overlap at player %d (SET[j] ∩ SET[k] must be empty)", k)
		}
		union |= m
	}
	if c.SiteNo < 0 {
		return fmt.Errorf("core: negative SiteNo %d", c.SiteNo)
	}
	if c.BufFrame < 0 {
		return fmt.Errorf("core: negative BufFrame %d", c.BufFrame)
	}
	if c.CFPS <= 0 {
		return fmt.Errorf("core: CFPS %d <= 0", c.CFPS)
	}
	if c.StartFrame < 0 {
		return fmt.Errorf("core: negative StartFrame %d", c.StartFrame)
	}
	return nil
}

// IsObserver reports whether this site only watches (contributes no input).
func (c Config) IsObserver() bool { return c.SiteNo >= c.NumPlayers }

// TimePerFrame is 1/CFPS.
func (c Config) TimePerFrame() time.Duration {
	return time.Second / time.Duration(c.CFPS)
}

// Peer is a remote site: its id and the connection to it.
type Peer struct {
	Site int
	Conn transport.Conn
}

// clockEpoch anchors the microsecond timestamps carried in sync messages.
// Any fixed instant works as long as one site uses it consistently; wall
// epochs far in the past still fit because timestamps wrap modulo 2^32 µs
// (~71 minutes) and are only ever differenced.
func microsSince(epoch, t time.Time) uint32 {
	return uint32(t.Sub(epoch) / time.Microsecond)
}
