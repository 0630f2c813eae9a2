package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of sorted by nearest rank:
// the smallest sample with at least q of the samples at or below it. Raw
// samples, no buckets — cmd/experiment's relayload reads its quantiles off
// power-of-two histogram bounds, which is why its p50 flips 1.05 <-> 2.10 ms.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder is the set of percentiles a report may quote, ascending.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupported picks the highest percentile of tailLadder that still has
// at least ten samples beyond it (the choosing-metrics rule for how far into
// the tail a sample count lets a report reach). ok is false when even the
// median lacks ten samples above it.
func highestSupported(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= 10 {
			q, ok = p, true
		}
	}
	return q, ok
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is (Q3-Q1)/median: the run-to-run width the driver compares with a
// metric's bound.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
