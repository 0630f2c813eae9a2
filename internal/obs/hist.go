package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a lock-free monotonic counter. The zero value is ready to use;
// a nil *Counter is valid and ignores writes (reads return 0).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is one bucket per possible bit length of a uint64 value:
// bucket 0 holds exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i - 1].
const histBuckets = 65

// NumBuckets exports the bucket count for packages that retain bucket-delta
// snapshots (the history store's downsampling rings).
const NumBuckets = histBuckets

// BucketCounts is a snapshot of a Histogram's per-bucket counts — the type
// Buckets returns and QuantileOfBuckets consumes.
type BucketCounts = [histBuckets]int64

// Histogram is a lock-free, power-of-two bucketed histogram of int64 values
// (typically durations in nanoseconds). Observe is a few atomic adds — no
// locks, no allocation — so it is safe on the 60 FPS hot path, and every
// accessor reads live while writers keep writing. Negative observations
// clamp to zero.
//
// Power-of-two buckets trade resolution for zero configuration: any value
// range is covered, relative error is at most 2x, and bucket index is one
// bits.Len64. That resolution is plenty for the distributions tracked here
// (frame time, cross-site skew, RTT, ARQ retransmission delay), which spread
// over decades, not percent.
//
// The zero value is ready to use; a nil *Histogram ignores observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Reset zeroes the histogram so it can be pooled and reused (e.g. the
// relay's per-session stat blocks). Resetting while writers are observing
// is not a consistent cut — callers must own the quiescent histogram, the
// same single-owner discipline pools already require.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Buckets returns a snapshot of the per-bucket counts. Because writers may
// race the reads, the copy is only approximately consistent — fine for
// monitoring, not for invariants.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// observed values: the bound of the first bucket whose cumulative count
// reaches q*Count. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	counts := h.Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	return QuantileOfBuckets(counts, total, q)
}
