// Package metrics aggregates the scheduling statistics the paper reports:
// cluster throughput time series (Fig. 11), JCT distributions
// (Fig. 12), queuing delays (Fig. 10), deadline satisfaction (§5.6), and
// rescheduling counts (§5.3).
package metrics

import (
	"math"
	"sort"
)

// Summary is the outcome of one scheduling run.
type Summary struct {
	Policy string

	// ThroughputSeries samples cluster throughput (samples/s) per round.
	ThroughputSeries []float64
	AvgThr           float64
	PeakThr          float64

	// Per-finished-job statistics. When unfinished jobs are included
	// (Fig. 12's note), their JCT is censored at the horizon.
	JCTs       []float64
	QueueTimes []float64
	AvgJCT     float64
	P50JCT     float64
	P90JCT     float64
	AvgQueue   float64

	Finished int
	Dropped  int
	Total    int

	AvgReschedules float64

	DeadlineSatisfied int
	DeadlineTotal     int

	// Fault-injection accounting (all zero on failure-free runs).

	// GoodputGPUHours is GPU-time spent on work that survived: completed
	// or durably checkpointed. WastedGPUHours is GPU-time destroyed by
	// crashes — rolled-back windows plus everything a permanently failed
	// job ever computed. Their sum is the total busy GPU-time, so the
	// split directly measures what failure handling saves.
	GoodputGPUHours float64
	WastedGPUHours  float64
	// RecomputeSeconds totals the productive time crash survivors must
	// redo from their last checkpoint.
	RecomputeSeconds float64

	Preemptions int // crash evictions across all jobs
	Restarts    int // checkpoint restarts consumed
	Failed      int // jobs dead past their retry budget
}

// DeadlineRatio returns the deadline satisfaction ratio (§5.6), or 0 when
// no job carried a deadline.
func (s *Summary) DeadlineRatio() float64 {
	if s.DeadlineTotal == 0 {
		return 0
	}
	return float64(s.DeadlineSatisfied) / float64(s.DeadlineTotal)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) with linear
// interpolation; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RelErr returns |a−b| / b (0 when b is 0) — the simulation-fidelity
// metric of §5.2.
func RelErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}
