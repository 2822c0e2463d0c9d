package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean of 1,2,3")
	}
}

func TestMax(t *testing.T) {
	if Max(nil) != 0 {
		t.Error("empty max")
	}
	if Max([]float64{3, 9, 1}) != 9 {
		t.Error("max of 3,9,1")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Error("extremes")
	}
	if Percentile(xs, 0.5) != 3 {
		t.Errorf("median = %v", Percentile(xs, 0.5))
	}
	if got := Percentile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("input mutated")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		pa := math.Abs(a) / (math.Abs(a) + 1) // squash into [0,1)
		pb := math.Abs(b) / (math.Abs(b) + 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(raw, pa) <= Percentile(raw, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Errorf("RelErr(11,10) = %v", RelErr(11, 10))
	}
	if RelErr(5, 0) != 0 {
		t.Error("division by zero guard")
	}
}

func TestDeadlineRatio(t *testing.T) {
	s := Summary{DeadlineSatisfied: 3, DeadlineTotal: 4}
	if s.DeadlineRatio() != 0.75 {
		t.Errorf("ratio = %v", s.DeadlineRatio())
	}
	if (&Summary{}).DeadlineRatio() != 0 {
		t.Error("no deadlines should give 0")
	}
}
