package metrics

import (
	"math"
	"testing"

	"github.com/sjtu-epcc/arena/internal/rng"
)

func TestP2ExactBelowFive(t *testing.T) {
	q := NewP2Quantile(0.5)
	for _, x := range []float64{5, 1, 3} {
		q.Add(x)
	}
	if got, want := q.Value(), Percentile([]float64{1, 3, 5}, 0.5); got != want {
		t.Errorf("median of 3 samples: sketch %g, exact %g", got, want)
	}
	if q.n != 3 {
		t.Errorf("count = %d", q.n)
	}
}

func TestP2Empty(t *testing.T) {
	if v := NewP2Quantile(0.9).Value(); v != 0 {
		t.Errorf("empty sketch Value = %g", v)
	}
	if m := NewStream().Mean(); m != 0 {
		t.Errorf("empty stream Mean = %g", m)
	}
}

func TestP2ApproximatesQuantiles(t *testing.T) {
	// Lognormal-ish data, the shape of JCT distributions. The sketch must
	// land within a few percent of the exact order statistic at n=50k.
	r := rng.Derive(7, rng.HashString("p2-test"))
	for _, p := range []float64{0.5, 0.9} {
		q := NewP2Quantile(p)
		var xs []float64
		for i := 0; i < 50000; i++ {
			x := r.LogNormalish(1000, 2.0)
			xs = append(xs, x)
			q.Add(x)
		}
		exact := Percentile(xs, p)
		if math.Abs(q.Value()-exact) > 0.05*exact {
			t.Errorf("p=%g: sketch %g vs exact %g (>5%% off)", p, q.Value(), exact)
		}
	}
}

func TestP2Deterministic(t *testing.T) {
	mk := func() float64 {
		r := rng.Derive(3, rng.HashString("p2-det"))
		q := NewP2Quantile(0.9)
		for i := 0; i < 1000; i++ {
			q.Add(r.Float64())
		}
		return q.Value()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("same input order gave %g then %g", a, b)
	}
}

func TestP2ExactBelowFiveAllQuantiles(t *testing.T) {
	// Below five observations the sketch has not initialized its markers
	// and must return the interpolated percentile of everything seen —
	// exactly, for any tracked p and any prefix length 1..4.
	samples := []float64{42, -3, 17, 8}
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		q := NewP2Quantile(p)
		for i, x := range samples {
			q.Add(x)
			sorted := append([]float64(nil), samples[:i+1]...)
			if got, want := q.Value(), Percentile(sorted, p); got != want {
				t.Errorf("p=%g after %d samples: sketch %g, exact %g", p, i+1, got, want)
			}
		}
	}
}

func TestP2AllEqualSamples(t *testing.T) {
	// Constant input: every marker height is pinned to the same value, so
	// the estimate must be exactly that value at every count — before and
	// long after the five-marker initialization.
	q := NewP2Quantile(0.9)
	for i := 1; i <= 1000; i++ {
		q.Add(7.5)
		if v := q.Value(); v != 7.5 {
			t.Fatalf("after %d equal samples: Value = %g, want 7.5", i, v)
		}
	}
}

func TestP2MonotoneRamp(t *testing.T) {
	// A strictly increasing ramp 1..n: the exact p-quantile is ≈ p*n, and
	// ordered input is a classic P² stressor (every observation lands in
	// the top cell). The sketch must stay within a few percent.
	const n = 10000
	for _, p := range []float64{0.5, 0.9} {
		q := NewP2Quantile(p)
		var xs []float64
		for i := 1; i <= n; i++ {
			x := float64(i)
			xs = append(xs, x)
			q.Add(x)
		}
		exact := Percentile(xs, p)
		if math.Abs(q.Value()-exact) > 0.05*exact {
			t.Errorf("p=%g on ramp: sketch %g vs exact %g (>5%% off)", p, q.Value(), exact)
		}
	}
}

func TestP2BimodalAdversarial(t *testing.T) {
	// 10k samples from two well-separated modes (most mass near 10, a
	// heavy cluster near 1000 — short jobs and long jobs). Quantiles near
	// the gap are where a five-marker sketch is weakest; require the P90
	// estimate to land inside the data range and within 15% of the exact
	// order statistic, an honest bound for this shape.
	r := rng.Derive(13, rng.HashString("p2-bimodal"))
	q := NewP2Quantile(0.9)
	var xs []float64
	for i := 0; i < 10000; i++ {
		var x float64
		if r.Float64() < 0.85 {
			x = 10 + r.Float64()
		} else {
			x = 1000 + 10*r.Float64()
		}
		xs = append(xs, x)
		q.Add(x)
	}
	exact := Percentile(xs, 0.9)
	got := q.Value()
	if got < 10 || got > 1010+1 {
		t.Fatalf("P90 estimate %g escaped the data range", got)
	}
	if math.Abs(got-exact) > 0.15*exact {
		t.Errorf("bimodal P90: sketch %g vs exact %g (>15%% off)", got, exact)
	}
}

func TestStreamMeanMatchesSliceSum(t *testing.T) {
	// The streaming mean must be bitwise the slice mean for the same
	// addition order — that is what keeps streaming-mode summaries
	// comparable to exact ones.
	r := rng.Derive(9, rng.HashString("stream-test"))
	st := NewStream(0.5)
	var xs []float64
	for i := 0; i < 10000; i++ {
		x := r.Exp(100)
		xs = append(xs, x)
		st.Add(x)
	}
	if st.n != len(xs) {
		t.Fatalf("count %d != %d", st.n, len(xs))
	}
	if st.Mean() != Mean(xs) {
		t.Errorf("stream mean %g != slice mean %g", st.Mean(), Mean(xs))
	}
	if st.Quantile(0.5) == 0 {
		t.Error("configured quantile returned 0")
	}
	if st.Quantile(0.9) != 0 {
		t.Error("unconfigured quantile should return 0")
	}
}
