package vclock

import "time"

// Scheduler extends Clock with the ability to run a callback after a delay.
// The simulated network (simnet.New) schedules its packet deliveries on it.
// *Virtual is the only Scheduler in the module, so a simulated world always
// runs as virtual-clock events, one at a time and in a defined order; the
// interface remains so that a probe can step a network by hand, with no
// clock at all.
type Scheduler interface {
	Clock

	// ScheduleAfter runs fn once at least d has passed. A non-positive d
	// schedules fn as soon as possible. fn must not block.
	ScheduleAfter(d time.Duration, fn func())
}

var _ Scheduler = (*Virtual)(nil)
