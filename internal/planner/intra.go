package planner

import (
	"math/bits"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// intraSelector chooses the intra-stage parallelism (dp, tp) for every
// (operator range, GPU count) pair of a grid, minimizing analytic
// communication cost subject to device memory (§3.3: "Arena further
// determines intra-stage parallelism per stage by minimizing communication
// cost within memory limits"). Results are memoized: only O(O²) distinct
// ranges exist across all partitions of a grid.
type intraSelector struct {
	graph    *model.Graph
	spec     hw.GPU
	grid     core.Grid
	numMicro int

	// memo is a dense table over (start, end, log2 gpus): O(O² log N)
	// entries, all hit many times across a grid's partitions — an array
	// avoids map hashing on the planner's hottest lookup.
	memo    []*intraChoice
	memoSet []bool
	numOps  int
	logGPUs int
}

// intraChoice is the selected factorization with its analytic comm costs.
type intraChoice struct {
	dp, tp       int
	perMicroComm float64 // tensor-parallel collectives per microbatch (fwd+bwd)
	iterComm     float64 // data-parallel gradient sync per iteration
}

func newIntraSelector(g *model.Graph, spec hw.GPU, grid core.Grid, numMicro int) *intraSelector {
	logGPUs := 1
	for p := 1; p < grid.N; p *= 2 {
		logGPUs++
	}
	size := (len(g.Ops) + 1) * (len(g.Ops) + 1) * logGPUs
	return &intraSelector{
		graph: g, spec: spec, grid: grid, numMicro: numMicro,
		memo: make([]*intraChoice, size), memoSet: make([]bool, size),
		numOps: len(g.Ops), logGPUs: logGPUs,
	}
}

// memoIdx flattens (start, end, gpus) — gpus is always a power of two,
// so its log is one bit scan on the planner's hottest lookup.
func (is *intraSelector) memoIdx(start, end, gpus int) int {
	lg := bits.Len(uint(gpus)) - 1
	return (start*(is.numOps+1)+end)*is.logGPUs + lg
}

// best returns the minimal-communication feasible (dp, tp) for a stage of
// ops [start, end) on `gpus` GPUs, or nil when nothing fits memory.
// The memory check is pessimistic (first stage of the pipeline holds the
// most in-flight microbatches), keeping the planner's feasibility
// judgement independent of where the stage lands in the pipeline.
func (is *intraSelector) best(start, end, gpus int) *intraChoice {
	key := is.memoIdx(start, end, gpus)
	if is.memoSet[key] {
		return is.memo[key]
	}
	var best *intraChoice
	for tp := 1; tp <= gpus; tp *= 2 {
		dp := gpus / tp
		if dp*tp != gpus {
			continue
		}
		st := parallel.StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp}
		mem := parallel.StageMemoryBytes(is.graph, st, is.grid.Workload.GlobalBatch, is.numMicro, 0, is.grid.S)
		if mem > is.spec.MemBytes*parallel.MemoryReserveFraction {
			continue
		}
		perMicro, iter := is.commCost(st)
		if best == nil || perMicro+iter < best.perMicroComm+best.iterComm {
			best = &intraChoice{dp: dp, tp: tp, perMicroComm: perMicro, iterComm: iter}
		}
	}
	is.memo[key] = best
	is.memoSet[key] = true
	return best
}

// commAccum accumulates the communication-load metric (Eq. 4) stage by
// stage. It is the single home of the metric's float arithmetic, shared
// by the eager population path (stageMetrics) and the incremental sweep
// (sweepFrontier.offer) so a candidate's LComm bits depend only on its
// stage choices, never on which path computed them. Both partial terms
// are monotone — the running maximum never decreases and every added
// term is non-negative — so load() after any stage prefix is a valid
// lower bound of the final load, which is what licenses the sweep's
// early rejection.
type commAccum struct {
	maxStage float64 // bottleneck per-microbatch communication so far
	total    float64 // fill-phase + gradient-sync terms so far
}

// add folds one stage's intra-stage choice into the metric.
func (a *commAccum) add(c *intraChoice) {
	if c.perMicroComm > a.maxStage {
		a.maxStage = c.perMicroComm
	}
	a.total += c.perMicroComm + c.iterComm
}

// load is the communication load (Eq. 4) of the stages folded so far:
// the bottleneck stage's per-microbatch communication repeats for B−1
// microbatches; every communication operator contributes once for the
// fill phase, and per-iteration gradient synchronization counts once.
func (a *commAccum) load(numMicro int) float64 {
	return float64(numMicro-1)*a.maxStage + a.total
}

// commCost returns the stage's analytic communication costs: the
// per-microbatch tensor-parallel collectives (forward + mirrored backward)
// and the per-iteration data-parallel gradient all-reduce. Costs use the
// pure alpha-beta model from hardware specifications — the execution
// engine's contention and jitter effects are deliberately absent, because
// the planner never executes anything.
func (is *intraSelector) commCost(st parallel.StagePlan) (perMicro, perIter float64) {
	microSamples := float64(is.grid.Workload.GlobalBatch) / float64(is.numMicro)
	spr := microSamples / float64(st.DP)
	gpusPerNode := is.spec.GPUsPerNode

	var stageParams float64
	for _, op := range is.graph.Ops[st.OpStart:st.OpEnd] {
		stageParams += op.ParamBytes
		if st.TP > 1 && op.TPCommBytes > 0 {
			topo := hw.Topology{
				GPUType: is.spec.Name, Workers: st.TP,
				CrossNode: st.TP > gpusPerNode, NICShare: gpusPerNode,
			}
			prim := hw.Primitive(op.TPPrimitive)
			if prim == "" {
				prim = hw.AllReduce
			}
			if t, err := hw.CollectiveTime(prim, topo, op.TPCommBytes*spr); err == nil {
				perMicro += 2 * t // forward + mirrored backward
			}
		}
	}
	if st.DP > 1 {
		share := gpusPerNode / st.TP
		if share < 1 {
			share = 1
		}
		topo := hw.Topology{
			GPUType: is.spec.Name, Workers: st.DP,
			CrossNode: st.GPUs() > gpusPerNode, NICShare: share,
		}
		if t, err := hw.CollectiveTime(hw.AllReduce, topo, stageParams/float64(st.TP)); err == nil {
			perIter = t
		}
	}
	return perMicro, perIter
}
