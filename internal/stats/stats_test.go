package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty must be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %f", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 {
		t.Error("stddev of empty must be 0")
	}
	if got := StdDev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("stddev of constants = %f", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %f, want 2", got)
	}
}

func TestPercent(t *testing.T) {
	if Percent(1, 4) != 25 {
		t.Error("25% expected")
	}
	if Percent(1, 0) != 0 {
		t.Error("zero denominator must yield 0")
	}
}

func TestStdDevProperties(t *testing.T) {
	// Shift invariance and non-negativity.
	f := func(xs []float64, shift float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e12 {
			return true
		}
		s1 := StdDev(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		s2 := StdDev(shifted)
		tol := 1e-6 * (1 + math.Abs(shift))
		return s1 >= 0 && math.Abs(s1-s2) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
