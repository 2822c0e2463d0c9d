package search

import (
	"context"
	"fmt"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/planner"
)

// Restriction encodes Arena's three runtime pruning rules (§3.6), derived
// from the planner's Pareto-optimal plans for the selected grid:
//
//  1. the pipeline degree is fixed to the best grid's (applied by the
//     caller choosing which degree to search);
//  2. stage partitions more imbalanced than the most imbalanced
//     Pareto-optimal partition are pruned — expressed as per-range load
//     share bounds;
//  3. a stage whose operator composition matches a stage of a
//     Pareto-optimal plan directly adopts that stage's GPU count and
//     intra-stage parallelism.
type Restriction struct {
	minShare, maxShare float64
	prefixLoad         []float64
	totalLoad          float64
	match              map[[2]int]stageShape
}

type stageShape struct {
	gpus, dp, tp int
}

// shareSlack loosens the Pareto-derived load-share bounds: the runtime
// search may explore slightly beyond the planner's frontier.
const shareSlack = 0.10

// BuildRestriction derives the pruning rules from a grid's Pareto
// frontier. It returns nil when the frontier is empty (no pruning).
func BuildRestriction(g *model.Graph, spec hw.GPU, frontier []*planner.Candidate) *Restriction {
	if len(frontier) == 0 {
		return nil
	}
	r := &Restriction{
		minShare: 1, maxShare: 0,
		prefixLoad: make([]float64, len(g.Ops)+1),
		match:      map[[2]int]stageShape{},
	}
	for i, op := range g.Ops {
		r.prefixLoad[i+1] = r.prefixLoad[i] + planner.OperatorLoad(op, spec)
	}
	r.totalLoad = r.prefixLoad[len(g.Ops)]

	for _, cand := range frontier {
		for _, st := range cand.Plan.Stages {
			share := (r.prefixLoad[st.OpEnd] - r.prefixLoad[st.OpStart]) / r.totalLoad
			if share < r.minShare {
				r.minShare = share
			}
			if share > r.maxShare {
				r.maxShare = share
			}
			key := [2]int{st.OpStart, st.OpEnd}
			// First-seen wins; frontier plans are ordered best-bias first.
			if _, ok := r.match[key]; !ok {
				r.match[key] = stageShape{gpus: st.GPUs(), dp: st.DP, tp: st.TP}
			}
		}
	}
	r.minShare *= 1 - shareSlack
	r.maxShare *= 1 + shareSlack
	return r
}

// RangeAllowed implements rule 2: the operator range's load share must lie
// within the Pareto-observed bounds.
func (r *Restriction) RangeAllowed(g *model.Graph, start, end int) bool {
	if r == nil {
		return true
	}
	share := (r.prefixLoad[end] - r.prefixLoad[start]) / r.totalLoad
	return share >= r.minShare && share <= r.maxShare
}

// ShapeAllowed implements rule 3: ranges matching a Pareto stage are
// pinned to that stage's GPU count and intra-stage parallelism.
func (r *Restriction) ShapeAllowed(start, end, gpus, dp, tp int) bool {
	if r == nil {
		return true
	}
	shape, ok := r.match[[2]int{start, end}]
	if !ok {
		return true
	}
	return shape.gpus == gpus && shape.dp == dp && shape.tp == tp
}

// prunedSearchBaseSeconds is the session overhead of the pruned search:
// stage candidates are far fewer, but session setup, tracing and the
// final plan's compilation are still paid.
const prunedSearchBaseSeconds = 90.0

// PrunedSearchCtx runs Arena's space-pruned AP search (§3.6) for the grid
// the scheduler selected: only the grid's pipeline degree is explored,
// with partition-imbalance and composition-matching pruning derived from
// the planner's Pareto frontier. Sharing one cache between the full and
// pruned searches of a point reuses every overlapping stage measurement.
// When ctx is cancelled the search stops as FullSearchCtx does and returns
// ctx.Err() with a zero Outcome.
func PrunedSearchCtx(ctx context.Context, eng *exec.Engine, g *model.Graph, spec hw.GPU, globalBatch, n int, gp *planner.GridPlan, opts Options) (Outcome, error) {
	if gp == nil || !gp.Feasible || gp.Proxy == nil {
		return Outcome{}, fmt.Errorf("search: pruned search needs a feasible grid plan")
	}
	if gp.Grid.N != n {
		return Outcome{}, fmt.Errorf("search: grid is for %d GPUs, searching %d", gp.Grid.N, n)
	}
	s, err := newSearcher(ctx, eng, g, spec, globalBatch, opts)
	if err != nil {
		return Outcome{}, err
	}
	defer s.release()
	restrict := BuildRestriction(g, spec, gp.Frontier)

	out := s.searchDegree(gp.Grid.S, n, restrict)
	if s.err != nil {
		return Outcome{}, s.err
	}
	out.StageEvals = s.stageEvals
	out.SearchTime = prunedSearchBaseSeconds + float64(s.stageEvals)*stageProfileSeconds
	opts.Progress.Emit("search.pruned", fmt.Sprintf("deg=%d", gp.Grid.S), 1, 1)

	// Fall back to the proxy plan if the restricted DP found nothing.
	if out.Plan == nil || !out.Result.Fits {
		res, err := s.evaluate(gp.Proxy.Plan)
		if err != nil {
			return out, err
		}
		return Outcome{
			Plan: gp.Proxy.Plan, Result: res,
			PlanEvals:  out.PlanEvals + 1,
			StageEvals: out.StageEvals,
			SearchTime: out.SearchTime,
		}, nil
	}
	return out, nil
}
