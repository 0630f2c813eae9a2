package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySeriesIsZero(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.MeanAbsDeviation() != 0 || s.AbsMean() != 0 ||
		s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series must report zeros everywhere")
	}
	if s.Summarize().N != 0 {
		t.Error("empty summary N != 0")
	}
}

func TestMeanAndMAD(t *testing.T) {
	// Paper footnote 10's definition, hand-computed:
	// values 10, 20, 30 -> mean 20, MAD = (10+0+10)/3.
	var s Series
	for _, v := range []float64{10, 20, 30} {
		s.Add(v)
	}
	if !almost(s.Mean(), 20) {
		t.Errorf("Mean = %v, want 20", s.Mean())
	}
	if !almost(s.MeanAbsDeviation(), 20.0/3) {
		t.Errorf("MAD = %v, want 6.66", s.MeanAbsDeviation())
	}
}

func TestAbsMean(t *testing.T) {
	// Paper footnote 11: mean of |x|. Values -5, 5, 10 -> 20/3.
	var s Series
	for _, v := range []float64{-5, 5, 10} {
		s.Add(v)
	}
	if !almost(s.AbsMean(), 20.0/3) {
		t.Errorf("AbsMean = %v, want 6.66", s.AbsMean())
	}
}

func TestAddDurationUsesMilliseconds(t *testing.T) {
	var s Series
	s.AddDuration(16700 * time.Microsecond)
	if !almost(s.Mean(), 16.7) {
		t.Errorf("Mean = %v, want 16.7 (ms)", s.Mean())
	}
}

func TestMinMaxPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Errorf("P99 = %v, want 99", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
}

func TestStdDevKnownValue(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almost(s.StdDev(), 2) { // classic textbook example
		t.Errorf("StdDev = %v, want 2", s.StdDev())
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	var s Series
	s.Add(1)
	vals := s.Values()
	vals[0] = 999
	if s.Mean() != 1 {
		t.Error("Values() aliases internal storage")
	}
}

func TestFPS(t *testing.T) {
	if got := FPS(16.666666667); math.Abs(got-60) > 0.01 {
		t.Errorf("FPS(16.67) = %v, want ~60", got)
	}
	if got := FPS(20); math.Abs(got-50) > 0.01 {
		t.Errorf("FPS(20) = %v, want 50", got)
	}
	if FPS(0) != 0 || FPS(-5) != 0 {
		t.Error("FPS of non-positive frame time must be 0")
	}
}

// Property: MAD is always <= StdDev and >= 0 (Jensen's inequality relation).
func TestPropertyMADBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
		}
		if s.Len() == 0 {
			return true
		}
		mad, sd := s.MeanAbsDeviation(), s.StdDev()
		return mad >= -1e-9 && mad <= sd+1e-6*math.Abs(sd)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Min <= Mean <= Max, and Min <= every percentile <= Max.
func TestPropertyOrderStats(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
		}
		if s.Len() == 0 {
			return true
		}
		pct := s.Percentile(float64(p % 101))
		return s.Min() <= s.Mean()+1e-6 && s.Mean() <= s.Max()+1e-6 &&
			s.Min() <= pct && pct <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AbsMean of non-negative data equals Mean.
func TestPropertyAbsMeanNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(math.Abs(math.Mod(v, 1e9)))
		}
		return almost(s.AbsMean(), s.Mean())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
