package span

import "sync/atomic"

// offsetWindow is how many recent echo samples the estimator retains. The
// minimum-RTT sample inside the window wins: queueing delay only ever adds
// (asymmetrically) to an RTT, so the fastest recent exchange is the one whose
// midpoint assumption — equal path delay both ways — held best.
const offsetWindow = 16

// OffsetEstimator turns the sync protocol's existing echo fields into a
// running estimate of the peer clock offset, NTP style. Every accepted sync
// message carries four microsecond instants (mod 2^32):
//
//	t1   our send stamp, echoed back by the peer      (local clock)
//	t2   the peer's receive instant of that message   (peer clock)
//	t3   the peer's send stamp on the echoing message (peer clock)
//	t4   our receive instant of the echo              (local clock)
//
// The wire carries t3 (SendTime) and hold = t3-t2 (EchoDelay) rather than t2
// directly; AddEcho reconstructs t2 = t3 - hold. The classic midpoint
//
//	offset = ((t1 - t2) + (t4 - t3)) / 2
//
// is the amount to ADD to a peer timestamp to express it on the local clock,
// and rtt = (t4 - t1) - hold is the matching path delay. All differences go
// through int32 so the mod-2^32 stamps stay wrap-safe.
//
// AddEcho has a single writer (the frame loop); the published best estimate
// is read atomically from anywhere. A nil estimator ignores samples and
// reports no offset.
type OffsetEstimator struct {
	ring [offsetWindow]offsetSample
	n    int64 // total samples ever accepted (writer-private ring cursor)

	count  atomic.Int64
	offset atomic.Int64 // best offset, microseconds
}

type offsetSample struct {
	rtt    int64
	offset int64
}

// AddEcho folds in one echo exchange (all four instants in microseconds mod
// 2^32, hold = peer processing delay). Samples with a non-positive RTT —
// wildly wrong stamps — are dropped.
func (e *OffsetEstimator) AddEcho(t1, hold, t3, t4 uint32) {
	if e == nil {
		return
	}
	t2 := t3 - hold // peer receive instant, peer clock (wrapping)
	rtt := int64(int32(t4-t1)) - int64(int32(hold))
	if rtt <= 0 {
		return
	}
	off := (int64(int32(t1-t2)) + int64(int32(t4-t3))) / 2
	e.ring[e.n%offsetWindow] = offsetSample{rtt: rtt, offset: off}
	e.n++

	valid := e.n
	if valid > offsetWindow {
		valid = offsetWindow
	}
	best := e.ring[0]
	for i := int64(1); i < valid; i++ {
		if e.ring[i].rtt < best.rtt {
			best = e.ring[i]
		}
	}
	e.offset.Store(best.offset)
	e.count.Store(e.n)
}

// OffsetMicros returns the current best estimate of the peer clock offset in
// microseconds (add to a peer stamp to get local time) and whether any
// estimate exists.
func (e *OffsetEstimator) OffsetMicros() (int64, bool) {
	if e == nil || e.count.Load() == 0 {
		return 0, false
	}
	return e.offset.Load(), true
}

// MapRemoteMicros maps a peer microsecond stamp (mod 2^32) onto the local
// nanosecond timeline: offsetMicros shifts it onto the local clock, then its
// (signed, wrap-safe) age relative to nowMicros — the local mod-2^32
// microsecond clock at nowNs — anchors it against nowNs. Returns 0 when the
// result would be non-positive (pre-epoch: the mapping is unusable).
func MapRemoteMicros(remote uint32, offsetMicros int64, nowMicros uint32, nowNs int64) int64 {
	ageMicros := int64(int32(nowMicros - (remote + uint32(int32(offsetMicros)))))
	v := nowNs - ageMicros*1000
	if v <= 0 {
		return 0
	}
	return v
}
