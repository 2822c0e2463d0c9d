package planner

import (
	"math/bits"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// intraSelector chooses the intra-stage parallelism (dp, tp) for every
// (operator range, GPU count) pair, minimizing analytic communication
// cost subject to device memory (§3.3: "Arena further determines
// intra-stage parallelism per stage by minimizing communication cost
// within memory limits"). Results are memoized in a dense table: only
// O(O²) distinct ranges exist across all partitions of a grid, and an
// array avoids map hashing on the planner's hottest lookup.
//
// A selection depends on the graph, the GPU type, the pipeline degree S
// (the microbatch count and the memory check's stage count), the global
// batch, the operator range and the GPU count — not on the grid's total
// N. One selector therefore serves every grid of a job with the same
// (GPU type, S): the Planner keeps it across N (see Planner), and a
// larger N only adds planes for the larger GPU counts.
type intraSelector struct {
	key      selectorKey
	s        int
	spec     hw.GPU
	numMicro int
	memLimit float64 // usable device memory per GPU, bytes

	// frac[rangeIdx(start, end)] is the range's share of the graph's
	// operator load, load(start, end)/total: a stage's fractional GPU
	// share is frac·N, the reference path's expression with the
	// division done once per range instead of once per DFS node.
	frac  []float64
	total float64 // total operator load of the graph

	// planes[lg][rangeIdx(start, end)] is the selection for 2^lg GPUs.
	// Each plane is its own allocation, so growing N appends planes and
	// never moves an entry a caller holds.
	planes [][]intraChoice

	selections int // entries computed since the last release (for tests)
}

// selectorKey is what a selector's entries depend on besides S, the
// operator range and the GPU count.
type selectorKey struct {
	graph   *model.Graph
	gpuType string
	batch   int
}

// intraChoice is one entry of a selector's table: the selected
// factorization with its analytic communication costs. The zero value
// is an entry not selected yet (tp is at least 1 once it is); dp 0 marks
// a range and GPU count where no factorization fits device memory.
type intraChoice struct {
	perMicroComm float64 // tensor-parallel collectives per microbatch (fwd+bwd)
	iterComm     float64 // data-parallel gradient sync per iteration
	dp, tp       int32
}

func newIntraSelector(key selectorKey, spec *hw.GPU, s int) *intraSelector {
	g := key.graph
	numOps := len(g.Ops)
	stats := newRangeStats(g, *spec)
	is := &intraSelector{
		key: key, s: s, spec: *spec, numMicro: parallel.DefaultMicrobatches(s),
		memLimit: spec.MemBytes * parallel.MemoryReserveFraction,
		frac:     make([]float64, rangeIdx(0, numOps+1)),
		total:    stats.loadOf(0, numOps),
	}
	for end := 1; end <= numOps; end++ {
		for start := 0; start < end; start++ {
			is.frac[rangeIdx(start, end)] = stats.loadOf(start, end) / is.total
		}
	}
	return is
}

// rangeIdx flattens the operator range [start, end), 0 ≤ start < end,
// into a triangular index: the ranges ending at end occupy
// [end(end−1)/2, end(end+1)/2).
func rangeIdx(start, end int) int { return end*(end-1)/2 + start }

// reserve makes the table cover every power-of-two GPU count up to n.
func (is *intraSelector) reserve(n int) {
	for lg := len(is.planes); 1<<lg <= n; lg++ {
		is.planes = append(is.planes, make([]intraChoice, len(is.frac)))
	}
}

// best returns the minimal-communication feasible (dp, tp) for a stage of
// ops [start, end) on `gpus` GPUs, or nil when nothing fits memory. gpus
// is a power of two the table covers; the pointer stays valid for the
// selector's lifetime.
// The memory check is pessimistic (first stage of the pipeline holds the
// most in-flight microbatches), keeping the planner's feasibility
// judgement independent of where the stage lands in the pipeline.
func (is *intraSelector) best(start, end, gpus int) *intraChoice {
	c := &is.planes[bits.Len(uint(gpus))-1][rangeIdx(start, end)]
	if c.tp == 0 {
		is.selectInto(c, start, end, gpus)
	}
	if c.dp == 0 {
		return nil
	}
	return c
}

// selectInto computes one table entry.
func (is *intraSelector) selectInto(c *intraChoice, start, end, gpus int) {
	is.selections++
	*c = intraChoice{tp: 1} // nothing fits until a shape does
	for tp := 1; tp <= gpus; tp *= 2 {
		dp := gpus / tp
		if dp*tp != gpus {
			continue
		}
		st := parallel.StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp}
		mem := parallel.StageMemoryBytes(is.key.graph, st, is.key.batch, is.numMicro, 0, is.s)
		if mem > is.memLimit {
			continue
		}
		perMicro, iter := is.commCost(st)
		if c.dp == 0 || perMicro+iter < c.perMicroComm+c.iterComm {
			*c = intraChoice{perMicroComm: perMicro, iterComm: iter, dp: int32(dp), tp: int32(tp)}
		}
	}
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
	microSamples := float64(is.key.batch) / float64(is.numMicro)
	spr := microSamples / float64(st.DP)
	gpusPerNode := is.spec.GPUsPerNode

	ops := is.key.graph.Ops
	var stageParams float64
	for i := st.OpStart; i < st.OpEnd; i++ {
		op := &ops[i]
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
			if t, err := is.spec.CollectiveTime(prim, topo, op.TPCommBytes*spr); err == nil {
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
		if t, err := is.spec.CollectiveTime(hw.AllReduce, topo, stageParams/float64(st.TP)); err == nil {
			perIter = t
		}
	}
	return perMicro, perIter
}
