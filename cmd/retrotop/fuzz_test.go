package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"retrolock/internal/obs"
)

// FuzzParseMetrics feeds parseMetrics arbitrary bytes, which it must survive
// without panicking, and then a real registry's exposition carrying the
// fuzzed values, every scalar of which it must read back exactly.
func FuzzParseMetrics(f *testing.F) {
	var seed bytes.Buffer
	if err := exposition(1234, 7).WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), 1234.0, uint8(7))
	f.Add([]byte("retrolock_frame{site=\"0\"} 1\nx_bucket{le=\"+Inf\"} 2\n"), math.Inf(-1), uint8(0))
	f.Add([]byte("x_bucket{le=\"bogus\"} 1\n"), math.NaN(), uint8(255))
	f.Add([]byte{}, -0.5, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, v float64, site uint8) {
		_, _ = parseMetrics(bytes.NewReader(data)) // any error is fine; a panic fails

		reg := exposition(v, site)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		snap, err := parseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse of a registry's own exposition: %v\n%s", err, b.String())
		}
		n := 0
		reg.VisitSeries(func(key, _ string, read func() float64) {
			n++
			got, ok := snap.scalars[key]
			if want := read(); !ok || (got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
				t.Errorf("%s = %v (found %v), want %v\n%s", key, got, ok, want, b.String())
			}
		})
		if n == 0 {
			t.Fatal("the registry wrote no scalars")
		}
	})
}

// exposition builds a registry with a counter, a gauge and a histogram for
// one site, the shapes a retrolock daemon serves.
func exposition(v float64, site uint8) *obs.Registry {
	reg := obs.NewRegistry()
	labels := obs.SiteLabels(int(site))
	reg.CounterFunc("retrolock_frame", labels, "frames", func() float64 { return math.Abs(v) })
	reg.GaugeFunc("retrolock_lag_frames", labels, "lag", func() float64 { return v })
	h := reg.NewHistogram("retrolock_rtt_ns", labels, "rtt")
	h.Observe(20e6)
	h.Observe(300e6)
	return reg
}
