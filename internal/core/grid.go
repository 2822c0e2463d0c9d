// Package core implements the paper's central abstraction: the grid
// sharding of the joint scheduling-parallelism optimization space (§3.2).
//
// The joint space J = S × P couples every scheduling plan (job J_i, GPU
// count n, GPU type m) with every adaptive-parallelism plan (stage
// partition, GPU assignment, intra-stage parallelism). Arena's key
// observation is that for a model on fixed resources with a *fixed
// pipeline degree*, plans can be compared analytically — balanced
// inter-stage loads consistently win — while comparisons across pipeline
// degrees, resources or models need measured latencies. The grid is
// therefore "the optimization subspace with determined resource and
// pipeline degree": estimation happens within a grid (J_in), profiling
// across grids (J_out).
package core

import (
	"fmt"

	"github.com/sjtu-epcc/arena/internal/model"
)

// MaxPipelineDegree bounds the pipeline degrees Arena enumerates per
// resource. The paper's workloads use up to 8 stages (Fig. 14).
const MaxPipelineDegree = 8

// Grid identifies one subspace of the joint optimization space for a job:
// all scheduling-parallelism plans with this resource allocation and this
// pipeline degree (Fig. 7).
type Grid struct {
	Workload model.Workload // job's model + global batch size
	GPUType  string         // resource type m
	N        int            // allocated GPU count n
	S        int            // pipeline degree (number of stages)
}

// String implements fmt.Stringer; the form doubles as a stable map key.
func (g Grid) String() string {
	return fmt.Sprintf("%s/%dx%s/s%d", g.Workload, g.N, g.GPUType, g.S)
}

// Resource is a grid's scheduling-space coordinate (n GPUs of type m)
// without the pipeline dimension — the unit the scheduler allocates.
type Resource struct {
	GPUType string
	N       int
}

// String implements fmt.Stringer.
func (r Resource) String() string { return fmt.Sprintf("%dx%s", r.N, r.GPUType) }

// PipelineDegrees returns the pipeline degrees enumerated for an n-GPU
// allocation over a graph with numOps clustered operators: every s with
// 1 ≤ s ≤ min(n, numOps, MaxPipelineDegree). Powers of two are not
// required — GPU assignments within a grid are power-of-two per stage,
// but the stage count itself is free (§3.2).
func PipelineDegrees(n, numOps int) []int {
	limit := n
	if numOps < limit {
		limit = numOps
	}
	if MaxPipelineDegree < limit {
		limit = MaxPipelineDegree
	}
	out := make([]int, 0, limit)
	for s := 1; s <= limit; s++ {
		out = append(out, s)
	}
	return out
}

// GPUCounts returns the power-of-two allocation sizes enumerated per GPU
// type: 1, 2, 4, ..., maxN (§3.3: per-stage GPU counts are limited to
// powers of two, following Sia).
func GPUCounts(maxN int) []int {
	var out []int
	for n := 1; n <= maxN; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Enumerate lists every grid for a workload across the given GPU types
// and a per-type maximum allocation, in deterministic order.
func Enumerate(w model.Workload, numOps int, gpuTypes []string, maxN int) []Grid {
	var grids []Grid
	for _, m := range gpuTypes {
		for _, n := range GPUCounts(maxN) {
			for _, s := range PipelineDegrees(n, numOps) {
				grids = append(grids, Grid{Workload: w, GPUType: m, N: n, S: s})
			}
		}
	}
	return grids
}
