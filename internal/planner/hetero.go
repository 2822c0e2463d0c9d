package planner

import (
	"fmt"
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// HeteroPool describes the mixed GPUs available to one job for the
// intra-job heterogeneity extension (§6): a count per type. Stages stay
// internally homogeneous; the planner decides which *stage* runs on which
// type.
type HeteroPool map[string]int

// types returns the pool's type names fastest-first (canonical order).
func (p HeteroPool) types() []string {
	var out []string
	for _, name := range hw.TypeNames() {
		if p[name] > 0 {
			out = append(out, name)
		}
	}
	var extra []string
	for name := range p {
		if _, err := hw.Lookup(name); err == nil {
			found := false
			for _, o := range out {
				if o == name {
					found = true
				}
			}
			if !found {
				extra = append(extra, name)
			}
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// PlanHetero partitions the model into s stages across a mixed GPU pool,
// following the paper's §6 recipe: the operator load definition is
// extended by quantifying each type's compute capability, the GPU
// assignment becomes capability-proportional, and each stage is pinned to
// one type. It returns the generated heterogeneous plan; candidate
// ranking reuses the homogeneous machinery's balance criterion.
func (pl *Planner) PlanHetero(g *model.Graph, pool HeteroPool, s, globalBatch int) (*exec.HeteroPlan, error) {
	if s < 1 || s > len(g.Ops) {
		return nil, fmt.Errorf("planner: hetero degree %d over %d ops", s, len(g.Ops))
	}
	types := pool.types()
	if len(types) == 0 {
		return nil, fmt.Errorf("planner: empty hetero pool")
	}
	numMicro := parallel.DefaultMicrobatches(s)

	// Capability quantification (§6): per-type attainable throughput on
	// this model's aggregate intensity, normalized to the slowest type.
	capability := map[string]float64{}
	slowest := math.MaxFloat64
	var totalFLOPs, totalBytes float64
	for _, op := range g.Ops {
		totalFLOPs += op.FLOPs
		totalBytes += op.Bytes
	}
	for _, typ := range types {
		spec := hw.MustLookup(typ)
		// Inverse ideal time per sample = capability.
		c := 1 / spec.IdealKernelTime(3*totalFLOPs, 3*totalBytes)
		capability[typ] = c
		if c < slowest {
			slowest = c
		}
	}

	// Capability-weighted pool capacity and per-op loads on a reference
	// device (loads are device-relative; the reference cancels out in the
	// proportional assignment).
	ref := hw.MustLookup(types[0])
	loads := make([]float64, len(g.Ops))
	var totalLoad float64
	for i, op := range g.Ops {
		loads[i] = OperatorLoad(op, ref)
		totalLoad += loads[i]
	}
	var capacity float64 // in slowest-GPU equivalents
	for _, typ := range types {
		capacity += float64(pool[typ]) * capability[typ] / slowest
	}

	// Enumerate partitions; for each, greedily bind stages to types:
	// heavier stages get faster types, stage GPU counts are power-of-two
	// within the type's remaining budget.
	var best *exec.HeteroPlan
	bestBias := math.MaxFloat64
	forEachPartition(len(g.Ops), s, func(_ int, bounds []int) {
		plan, bias := pl.bindHeteroStages(g, pool, types, capability, slowest, loads, totalLoad, capacity, bounds, numMicro, globalBatch)
		if plan != nil && bias < bestBias {
			best, bestBias = plan, bias
		}
	})
	if best == nil {
		return nil, fmt.Errorf("planner: no feasible heterogeneous plan for s=%d", s)
	}
	return best, nil
}

// bindHeteroStages materializes one partition: stages sorted by load take
// types fastest-first, each receiving a power-of-two slice of that type's
// budget proportional to its capability-normalized load. Returns nil when
// any stage cannot fit memory or budget.
func (pl *Planner) bindHeteroStages(
	g *model.Graph, pool HeteroPool, types []string,
	capability map[string]float64, slowest float64,
	loads []float64, totalLoad, capacity float64,
	bounds []int, numMicro, globalBatch int,
) (*exec.HeteroPlan, float64) {
	s := len(bounds)
	type stageInfo struct {
		idx        int
		start, end int
		load       float64
	}
	infos := make([]stageInfo, s)
	start := 0
	for j, end := range bounds {
		var load float64
		for i := start; i < end; i++ {
			load += loads[i]
		}
		infos[j] = stageInfo{idx: j, start: start, end: end, load: load}
		start = end
	}
	order := append([]stageInfo(nil), infos...)
	// Load ties resolve by stage index: on the metric alone, sort.Slice's
	// unstable pdqsort would pick which equally-loaded stage gets the
	// faster GPU type — a per-Go-release artifact, the same class as the
	// PR 5 frontier tie bug. The index extension makes the order total.
	sort.Slice(order, func(a, b int) bool {
		if order[a].load != order[b].load {
			return order[a].load > order[b].load
		}
		return order[a].idx < order[b].idx
	})

	remaining := map[string]int{}
	for t, c := range pool {
		remaining[t] = c
	}
	stages := make([]exec.HeteroStage, s)
	var bias float64
	for _, info := range order {
		// Ideal share of total capability for this stage, in slowest-GPU
		// equivalents.
		idealCap := info.load / totalLoad * capacity
		placed := false
		for _, typ := range types {
			if remaining[typ] == 0 {
				continue
			}
			perGPU := capability[typ] / slowest
			ideal := idealCap / perGPU // ideal GPU count on this type
			n := nearestPow2(ideal, remaining[typ])
			if n == 0 {
				continue
			}
			st := parallel.StagePlan{OpStart: info.start, OpEnd: info.end, DP: n, TP: 1}
			// Pick the least-communication feasible (dp, tp) shape.
			spec := hw.MustLookup(typ)
			shaped := false
			for tp := 1; tp <= n; tp *= 2 {
				st.DP, st.TP = n/tp, tp
				if st.DP*st.TP != n {
					continue
				}
				mem := parallel.StageMemoryBytes(g, st, globalBatch, numMicro, 0, len(bounds))
				if mem <= spec.MemBytes*parallel.MemoryReserveFraction {
					shaped = true
					break
				}
			}
			if !shaped {
				continue
			}
			remaining[typ] -= n
			stages[info.idx] = exec.HeteroStage{StagePlan: st, GPUType: typ}
			d := float64(n)*perGPU - idealCap
			bias += d * d
			placed = true
			break
		}
		if !placed {
			return nil, 0
		}
	}
	return &exec.HeteroPlan{Stages: stages, NumMicrobatches: numMicro}, math.Sqrt(bias)
}

// nearestPow2 rounds a fractional GPU demand to the closest power of two
// within the budget (minimum 1, 0 when the budget is empty).
func nearestPow2(ideal float64, budget int) int {
	if budget < 1 {
		return 0
	}
	best, bestDist := 1, math.Abs(1-ideal)
	for n := 2; n <= budget; n *= 2 {
		if d := math.Abs(float64(n) - ideal); d < bestDist {
			best, bestDist = n, d
		}
	}
	if best > budget {
		return budget
	}
	return best
}
