package planner

import "math"

// reduceFrontier shrinks an oversized frontier by repeatedly locating the
// pair of plans with the most similar stage partitions and dropping the
// one with the higher communication load (§3.3).
func (pl *Planner) reduceFrontier(frontier []*Candidate) []*Candidate {
	max := pl.MaxFrontier
	if max <= 0 {
		max = 16
	}
	out := append([]*Candidate(nil), frontier...)
	for len(out) > max {
		bi, bj := -1, -1
		bestSim := math.MaxFloat64
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				sim := partitionDistance(out[i].OpsPerStage, out[j].OpsPerStage)
				if sim < bestSim {
					bestSim, bi, bj = sim, i, j
				}
			}
		}
		drop := bi
		if out[bj].LComm > out[bi].LComm {
			drop = bj
		}
		out = append(out[:drop], out[drop+1:]...)
	}
	return out
}

// partitionDistance is the L1 distance between two ops-per-stage vectors;
// vectors of different lengths are padded with zeros (they cannot occur
// within one grid, but the metric stays total).
func partitionDistance(a, b []int) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d float64
	for i := 0; i < n; i++ {
		var av, bv int
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d += math.Abs(float64(av - bv))
	}
	return d
}

// selectProxy picks the grid's proxy plan from the Pareto frontier: filter
// to plans with (near-)minimum computation bias — computation typically
// dominates end-to-end performance — then take the lowest communication
// load among them (§3.3).
func (pl *Planner) selectProxy(frontier []*Candidate) *Candidate {
	if len(frontier) == 0 {
		return nil
	}
	minBias := math.MaxFloat64
	for _, c := range frontier {
		if c.BComp < minBias {
			minBias = c.BComp
		}
	}
	tol := pl.BiasTolerance
	if tol < 0 {
		tol = 0
	}
	cutoff := minBias*(1+tol) + 1e-12
	var proxy *Candidate
	for _, c := range frontier {
		if c.BComp > cutoff {
			continue
		}
		if proxy == nil || c.LComm < proxy.LComm {
			proxy = c
		}
	}
	return proxy
}
