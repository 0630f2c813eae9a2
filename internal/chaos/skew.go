package chaos

import (
	"time"

	"retrolock/internal/vclock"
)

// SkewClock is a vclock.Clock that runs at a configurable rate relative to
// an inner clock, modelling a site whose oscillator is fast or slow: at rate
// 1.02 every inner second reads as 1.02 skewed seconds, and a requested
// Sleep(d) parks the caller for only d/1.02 of inner time. Rate changes
// re-anchor the mapping so skewed time never jumps, only changes slope —
// like a real crystal drifting, and unlike a step change, it cannot move
// time backwards.
//
// All arithmetic is deterministic, so a virtual-time run with a skewed site
// stays bit-reproducible. It has no lock of its own: its one user wraps a
// vclock.Virtual, whose baton already orders the skewed site's reads against
// the phase callbacks that call SetRate.
type SkewClock struct {
	inner vclock.Clock

	rate        float64
	anchor      time.Time // skewed time at the last re-anchor
	anchorInner time.Time // inner time at the last re-anchor
}

// NewSkew wraps inner with the given rate (values <= 0 mean 1.0).
func NewSkew(inner vclock.Clock, rate float64) *SkewClock {
	if rate <= 0 {
		rate = 1
	}
	now := inner.Now()
	return &SkewClock{inner: inner, rate: rate, anchor: now, anchorInner: now}
}

// Now implements vclock.Clock.
func (s *SkewClock) Now() time.Time {
	return s.anchor.Add(time.Duration(float64(s.inner.Now().Sub(s.anchorInner)) * s.rate))
}

// Sleep implements vclock.Clock: d of skewed time costs d/rate of inner
// time. A rate change during the sleep does not shorten or lengthen it; the
// new slope applies from the caller's next observation.
func (s *SkewClock) Sleep(d time.Duration) {
	if d > 0 {
		d = time.Duration(float64(d) / s.rate)
	}
	s.inner.Sleep(d)
}

// SetRate changes the clock's slope, re-anchoring so the current skewed
// instant is preserved. Values <= 0 mean 1.0.
func (s *SkewClock) SetRate(rate float64) {
	if rate <= 0 {
		rate = 1
	}
	s.anchor, s.anchorInner = s.Now(), s.inner.Now()
	s.rate = rate
}

var _ vclock.Clock = (*SkewClock)(nil)
