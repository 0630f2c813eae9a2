// Package metrics implements the statistics the paper's evaluation reports.
//
// Figure 1 plots the average frame time and the *average deviation* of frame
// times (the paper's footnote 10: mean of absolute deviations from the mean).
// Figure 2 plots the *absolute average* of cross-site frame-time differences
// (footnote 11: mean of absolute values). Both are provided here, together
// with the usual descriptive statistics used by the extended experiments.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Series is an ordered collection of sample values. The zero value is ready
// to use.
type Series struct {
	vals []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.vals = append(s.vals, v) }

// AddDuration appends a duration sample in milliseconds, the unit of every
// figure in the paper.
func (s *Series) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.vals) }

// Values returns a copy of the samples.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// MeanAbsDeviation returns the paper's "average deviation" (footnote 10):
// the mean of |x_i - mean|.
func (s *Series) MeanAbsDeviation() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		sum += math.Abs(v - m)
	}
	return sum / float64(len(s.vals))
}

// AbsMean returns the paper's "absolute average" (footnote 11): the mean of
// |x_i|.
func (s *Series) AbsMean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += math.Abs(v)
	}
	return sum / float64(len(s.vals))
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.vals)))
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy. An empty series yields 0.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Summary bundles the statistics one experiment point reports.
type Summary struct {
	N       int
	Mean    float64
	MAD     float64 // mean absolute deviation (Figure 1's "average deviation")
	AbsMean float64 // mean of absolute values (Figure 2's metric)
	StdDev  float64
	Min     float64
	Max     float64
	P99     float64
}

// Summarize computes a Summary of the series.
func (s *Series) Summarize() Summary {
	return Summary{
		N:       s.Len(),
		Mean:    s.Mean(),
		MAD:     s.MeanAbsDeviation(),
		AbsMean: s.AbsMean(),
		StdDev:  s.StdDev(),
		Min:     s.Min(),
		Max:     s.Max(),
		P99:     s.Percentile(99),
	}
}

// FPS converts a mean frame time in milliseconds to frames per second.
func FPS(meanFrameMillis float64) float64 {
	if meanFrameMillis <= 0 {
		return 0
	}
	return 1000 / meanFrameMillis
}
