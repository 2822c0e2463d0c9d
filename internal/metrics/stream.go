package metrics

import "sort"

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac, 1985): five markers whose heights are nudged by a
// piecewise-parabolic update as observations stream in. O(1) memory and
// O(1) per observation, fully deterministic for a given input order —
// which is what lets two simulator cores that process completions in the
// same order report identical sketch values.
//
// For fewer than five observations the estimate is exact (it falls back
// to the interpolated percentile of everything seen).
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based counts)
	des  [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
	init bool
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	return &P2Quantile{p: p, inc: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

// P returns the quantile this estimator tracks.
func (s *P2Quantile) P() float64 { return s.p }

// Add feeds one observation.
func (s *P2Quantile) Add(x float64) {
	if !s.init {
		s.q[s.n] = x
		s.n++
		if s.n == 5 {
			sort.Float64s(s.q[:])
			s.pos = [5]float64{1, 2, 3, 4, 5}
			s.des = [5]float64{1, 1 + 2*s.p, 1 + 4*s.p, 3 + 2*s.p, 5}
			s.init = true
		}
		return
	}
	// Locate the cell k with q[k] <= x < q[k+1], extending the extremes.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := 0; i < 5; i++ {
		s.des[i] += s.inc[i]
	}
	// Nudge the three interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.des[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if qn := s.parabolic(i, sign); s.q[i-1] < qn && qn < s.q[i+1] {
				s.q[i] = qn
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
	s.n++
}

// parabolic is P²'s piecewise-parabolic height prediction for marker i
// moved by sign (±1).
func (s *P2Quantile) parabolic(i int, sign float64) float64 {
	return s.q[i] + sign/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+sign)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-sign)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots
// a neighbouring marker.
func (s *P2Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return s.q[i] + sign*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Value returns the current quantile estimate (0 with no observations).
func (s *P2Quantile) Value() float64 {
	if s.n == 0 {
		return 0
	}
	if !s.init {
		return Percentile(s.q[:s.n], s.p)
	}
	return s.q[2]
}

// Stream accumulates summary statistics one observation at a time: an
// exact count and mean plus P² sketches for any requested quantiles.
// It is the O(1)-memory replacement for the Summary's raw value slices
// when the simulator runs in streaming mode. Additions in a given order
// produce bitwise-identical sums to Mean over a slice in that order.
type Stream struct {
	n      int
	sum    float64
	quants []*P2Quantile
}

// NewStream returns a collector sketching the given quantiles.
func NewStream(ps ...float64) *Stream {
	st := &Stream{}
	for _, p := range ps {
		st.quants = append(st.quants, NewP2Quantile(p))
	}
	return st
}

// Add feeds one observation.
func (st *Stream) Add(x float64) {
	st.n++
	st.sum += x
	for _, q := range st.quants {
		q.Add(x)
	}
}

// Mean returns the exact mean (0 with no observations).
func (st *Stream) Mean() float64 {
	if st.n == 0 {
		return 0
	}
	return st.sum / float64(st.n)
}

// Quantile returns the sketch estimate for a configured quantile p, or 0
// if p was not requested at construction.
func (st *Stream) Quantile(p float64) float64 {
	for _, q := range st.quants {
		if q.P() == p {
			return q.Value()
		}
	}
	return 0
}
