package planner

import (
	"fmt"
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
)

// The planner's reference paths live here, in the tests. Production plans
// every grid one way: the prefix-DP enumerator (dp.go) streaming into the
// incremental Pareto sweep (frontier.go). The references are the
// per-partition enumerator and the post-hoc sort-and-sweep reduction
// those replaced, built on the production primitives they shared
// (forEachPartition, normalizeAssignment, the candidate sinks, frontier
// reduction and proxy selection). The determinism tests require every
// enumerator × reduction combination to emit GridPlans bit-identical to
// PlanGrid, and the exhaustive population to match EnumerateCandidates.

// gridInputs is PlanGrid's per-grid setup: shape validation, operator
// load prefix sums and a fresh intra-stage selector.
type gridInputs struct {
	stats     *opRangeStats
	totalLoad float64
	intra     *intraSelector
}

func newGridInputs(g *model.Graph, grid core.Grid) (*gridInputs, error) {
	spec, err := hw.Lookup(grid.GPUType)
	if err != nil {
		return nil, err
	}
	numOps := len(g.Ops)
	if grid.S < 1 || grid.S > numOps || grid.S > grid.N {
		return nil, fmt.Errorf("planner: grid %v infeasible shape (O=%d)", grid, numOps)
	}
	in := &gridInputs{stats: newRangeStats(g, spec)}
	in.totalLoad = in.stats.loadOf(0, numOps)
	if in.totalLoad <= 0 {
		return nil, fmt.Errorf("planner: graph %s has zero load", g.Name)
	}
	in.intra = newIntraSelector(selectorKey{graph: g, gpuType: grid.GPUType, batch: grid.Workload.GlobalBatch}, &spec, grid.S)
	in.intra.reserve(grid.N)
	return in, nil
}

// enumerateExhaustive is the reference enumerator: it visits the
// C(O−1, s−1) partitions in lexicographic order, computes each one's
// fractional shares and power-of-two assignment from scratch, offers
// every partition with a feasible assignment to the sink and returns the
// number of partitions visited.
func enumerateExhaustive(g *model.Graph, grid core.Grid, in *gridInputs, sink candidateSink) int {
	evaluated := 0
	scr := newCandScratch(grid.S, grid.N)
	forEachPartition(len(g.Ops), grid.S, func(rank int, bounds []int) {
		evaluated++
		start := 0
		for j, end := range bounds {
			scr.ideal[j] = in.stats.loadOf(start, end) / in.totalLoad * float64(grid.N)
			scr.opsPer[j] = end - start
			start = end
		}
		if assign, bias2 := normalizeAssignment(scr.ideal, grid.N, scr); assign != nil {
			sink.offer(bounds, assign, scr.opsPer, scr.ideal, bias2, rank)
		}
	})
	return evaluated
}

// referencePlanGrid is PlanGrid on a chosen enumerator (exhaustive or
// prefix DP) and Pareto reduction (post-hoc sorted or incremental sweep).
func referencePlanGrid(pl *Planner, g *model.Graph, grid core.Grid, exhaustive, sorted bool) (*GridPlan, error) {
	in, err := newGridInputs(g, grid)
	if err != nil {
		return nil, err
	}
	enumerate := func(sink candidateSink) int {
		if exhaustive {
			return enumerateExhaustive(g, grid, in, sink)
		}
		return enumerateDP(g, grid, in.intra, sink)
	}
	out := &GridPlan{Grid: grid}
	var frontier []*Candidate
	if sorted {
		sink := newPopulationSink(g, grid, in.intra)
		out.CandidatesEvaluated = enumerate(sink)
		frontier = paretoFrontier(sink.candidates())
	} else {
		sink := newSweepFrontier(grid.S, in.intra)
		out.CandidatesEvaluated = enumerate(sink)
		frontier = sink.candidates()
	}
	if len(frontier) == 0 {
		return out, nil
	}
	out.Feasible = true
	out.Frontier = pl.reduceFrontier(frontier)
	out.Proxy = pl.selectProxy(out.Frontier)
	return out, nil
}

// referenceEnumerateCandidates is EnumerateCandidates on the exhaustive
// enumerator.
func referenceEnumerateCandidates(g *model.Graph, grid core.Grid) []*Candidate {
	in, err := newGridInputs(g, grid)
	if err != nil {
		return nil
	}
	sink := newPopulationSink(g, grid, in.intra)
	enumerateExhaustive(g, grid, in, sink)
	return sink.candidates()
}

// paretoFrontier returns the non-dominated candidates under simultaneous
// minimization of (BComp, LComm): a plan is kept iff no other plan is at
// least as good on both metrics and strictly better on one (§3.3). It is
// the post-hoc reference reduction the incremental sweep (frontier.go)
// replaced and is checked against.
//
// Exact (BComp, LComm) ties keep the candidate at the lowest input
// position — the lexicographic partition rank, since both enumerators
// present candidates in that order. The position tie-break is explicit
// in the comparator: an earlier revision sorted on the metrics alone,
// which let sort.Slice's unstable pdqsort pick the surviving duplicate —
// deterministic for a fixed Go release but an artifact of the sort
// algorithm, observed to keep non-first members in two thirds of the
// tie-heavy matrix's frontier tie groups. The rank rule makes the
// reference a pure function of the candidate population and is what the
// incremental sweep reproduces order-independently.
func paretoFrontier(cands []*Candidate) []*Candidate {
	// Sort by BComp ascending, LComm ascending, input position ascending
	// (a total order, so sort instability cannot matter); then sweep: a
	// candidate is on the frontier iff its LComm is strictly below every
	// previously kept LComm (classic 2-D skyline).
	pos := make(map[*Candidate]int, len(cands))
	for i, c := range cands {
		pos[c] = i
	}
	sorted := append([]*Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].BComp != sorted[j].BComp {
			return sorted[i].BComp < sorted[j].BComp
		}
		if sorted[i].LComm != sorted[j].LComm {
			return sorted[i].LComm < sorted[j].LComm
		}
		return pos[sorted[i]] < pos[sorted[j]]
	})
	var frontier []*Candidate
	bestLComm := math.MaxFloat64
	for _, c := range sorted {
		if c.LComm < bestLComm {
			frontier = append(frontier, c)
			bestLComm = c.LComm
		}
	}
	return frontier
}
