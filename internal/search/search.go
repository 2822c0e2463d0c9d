package search

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// Per-candidate profiling cost model: each stage candidate is compiled and
// measured on hardware; a search session additionally pays a fixed
// compilation/tracing base cost.
const (
	stageProfileSeconds = 0.33
	searchBaseSeconds   = 120.0
	topKEndToEnd        = 12 // compositions measured end-to-end per degree
)

// Outcome reports a search's best plan and its cost accounting.
type Outcome struct {
	Plan   *parallel.Plan
	Result exec.Result

	StageEvals int     // profiled stage candidates (the dominant cost)
	PlanEvals  int     // end-to-end plan measurements
	SearchTime float64 // modeled wall-clock seconds for the search
}

// Feasible reports whether the search found any memory-feasible plan.
func (o Outcome) Feasible() bool { return o.Plan != nil && o.Result.Fits }

// stageCand is one profiled stage candidate.
type stageCand struct {
	start, end int
	gpus       int
	dp, tp     int
	time       float64 // per-microbatch latency (engine measurement)
}

// Options tune how a search session executes. Options change only
// wall-clock execution, never outcomes: the engine is a pure function of
// its seed, so every cache and worker count yields bit-identical outcomes
// (including the StageEvals/SearchTime cost model, which accounts
// profiled candidates, not cache misses — a real system re-deploying a
// memoized measurement still models the paper's per-candidate profiling
// bill). The zero value searches serially with a private cache and the
// device catalog's node packing.
type Options struct {
	// GPUsPerNode overrides the device catalog's node packing (0 = the
	// spec default).
	GPUsPerNode int
	// Cache memoizes stage measurements and plan evaluations across
	// degrees and across searches sharing it; nil gives the search a
	// private cache of its own. It must be bound to the same engine the
	// search runs on.
	Cache *evalcache.Cache
	// Workers bounds the candidate-profiling fan-out per degree
	// (<= 1 = serial, < 0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one event per pipeline degree
	// searched. It never affects outcomes.
	Progress core.ProgressFunc
}

// workers resolves the effective pool width.
func (o Options) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// searcher carries shared state across one search session.
type searcher struct {
	ctx         context.Context
	graph       *model.Graph
	spec        hw.GPU
	globalBatch int
	gpusPerNode int
	cache       *evalcache.Cache
	shard       *evalcache.StageShard // the cache's view of (graph, spec, gpusPerNode)
	workers     int

	stageEvals int
	err        error // sticky cancellation error (always ctx.Err())
}

// evaluate measures a composed plan end to end through the session cache.
func (s *searcher) evaluate(plan *parallel.Plan) (exec.Result, error) {
	return s.cache.Evaluate(s.graph, plan, s.spec, s.globalBatch, s.gpusPerNode)
}

// FullSearchCtx explores the complete adaptive-parallelism space for n
// GPUs of the given type: every pipeline degree, every contiguous
// partition, every power-of-two GPU assignment and intra-stage shape —
// the Alpa workflow. It returns the best measured plan. When ctx is
// cancelled the search stops within one scheduling quantum of its worker
// pool and returns ctx.Err() with a zero Outcome.
func FullSearchCtx(ctx context.Context, eng *exec.Engine, g *model.Graph, spec hw.GPU, globalBatch, n int, opts Options) (Outcome, error) {
	if n < 1 {
		return Outcome{}, fmt.Errorf("search: n=%d", n)
	}
	s, err := newSearcher(ctx, eng, g, spec, globalBatch, opts)
	if err != nil {
		return Outcome{}, err
	}
	var best Outcome
	degrees := core.PipelineDegrees(n, len(g.Ops))
	for i, deg := range degrees {
		out := s.searchDegree(deg, n, nil)
		if s.err != nil {
			return Outcome{}, s.err
		}
		mergeBest(&best, out)
		opts.Progress.Emit("search.full", fmt.Sprintf("deg=%d", deg), i+1, len(degrees))
	}
	best.StageEvals = s.stageEvals
	best.SearchTime = searchBaseSeconds + float64(s.stageEvals)*stageProfileSeconds
	return best, nil
}

// newSearcher validates options and builds a search session.
func newSearcher(ctx context.Context, eng *exec.Engine, g *model.Graph, spec hw.GPU, globalBatch int, opts Options) (*searcher, error) {
	cache := opts.Cache
	if cache == nil {
		cache = evalcache.New(eng)
	} else if cache.Engine() != eng {
		return nil, fmt.Errorf("search: cache is bound to a different engine")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	gpusPerNode := opts.GPUsPerNode
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	return &searcher{
		ctx: ctx, graph: g, spec: spec, globalBatch: globalBatch,
		gpusPerNode: gpusPerNode, cache: cache, shard: cache.StageShard(g, spec, gpusPerNode),
		workers: opts.workers(),
	}, nil
}

// mergeBest folds a per-degree outcome into the running best, keeping
// plan-eval counts cumulative.
func mergeBest(best *Outcome, out Outcome) {
	best.PlanEvals += out.PlanEvals
	if out.Plan == nil || !out.Result.Fits {
		return
	}
	if best.Plan == nil || !best.Result.Fits || out.Result.Throughput > best.Result.Throughput {
		best.Plan, best.Result = out.Plan, out.Result
	}
}

// searchDegree finds the best plan with exactly `deg` stages over n GPUs.
// When restrict is non-nil it is consulted to prune stage candidates
// (Arena's runtime pruning rules).
func (s *searcher) searchDegree(deg, n int, restrict *Restriction) Outcome {
	numMicro := parallel.DefaultMicrobatches(deg)
	cands := s.profileStageCandidates(deg, n, numMicro, restrict)
	if s.err != nil || len(cands) == 0 {
		return Outcome{}
	}

	// Bottleneck-bounded composition: enumerate t_max candidates from the
	// profiled latency distribution, DP-compose minimal-total pipelines
	// under each bound, measure the distinct results end-to-end.
	bounds := latencyQuantiles(cands, 24)
	composed := s.composeBounds(cands, deg, n, bounds)
	seen := map[string]bool{}
	var out Outcome
	for _, stages := range composed {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return Outcome{}
		}
		if stages == nil {
			continue
		}
		// StagesKey uniquely encodes the stage sequence (ranges + shapes),
		// which — with numMicro fixed per degree — is the whole plan.
		key := parallel.StagesKey(stages)
		if seen[key] {
			continue
		}
		seen[key] = true
		if out.PlanEvals >= topKEndToEnd {
			break
		}
		plan := &parallel.Plan{Stages: stages, NumMicrobatches: numMicro}
		res, err := s.evaluate(plan)
		out.PlanEvals++
		if err != nil || !res.Fits {
			continue
		}
		if out.Plan == nil || res.Throughput > out.Result.Throughput {
			out.Plan, out.Result = plan, res
		}
	}
	return out
}

// profileStageCandidates profiles every (range, gpus, dp, tp) stage
// candidate valid for a deg-stage pipeline of n GPUs, applying the
// restriction's range and shape pruning when present.
//
// Enumeration, cost accounting and memory feasibility run serially (they
// are cheap and deterministic); the expensive engine measurements then fan
// out over the session's worker pool. Because the engine is pure, the
// resulting candidate list is bit-identical to the serial path.
func (s *searcher) profileStageCandidates(deg, n, numMicro int, restrict *Restriction) []stageCand {
	numOps := len(s.graph.Ops)
	microSamples := float64(s.globalBatch) / float64(numMicro)
	var jobs []parallel.StagePlan
	for start := 0; start < numOps; start++ {
		for end := start + 1; end <= numOps; end++ {
			// A stage of a deg-pipeline must leave ≥ start ops before and
			// ≥ (deg-1) ops behind overall; cheap necessary conditions:
			if deg > 1 && end-start > numOps-(deg-1) {
				continue
			}
			if restrict != nil && !restrict.RangeAllowed(s.graph, start, end) {
				continue
			}
			for gpus := 1; gpus <= n-(deg-1); gpus *= 2 {
				for tp := 1; tp <= gpus; tp *= 2 {
					dp := gpus / tp
					if dp*tp != gpus {
						continue
					}
					if restrict != nil && !restrict.ShapeAllowed(start, end, gpus, dp, tp) {
						continue
					}
					st := parallel.StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp}
					s.stageEvals++ // profiling happens regardless of OOM outcome
					if !exec.StageFitsMemory(s.graph, st, s.spec, s.globalBatch, numMicro, deg) {
						continue
					}
					jobs = append(jobs, st)
				}
			}
		}
	}

	cands := make([]stageCand, len(jobs))
	if err := core.ParallelForCtx(s.ctx, len(jobs), s.workers, func(i int) {
		st := jobs[i]
		m := s.shard.Measure(st, microSamples)
		cands[i] = stageCand{
			start: st.OpStart, end: st.OpEnd, gpus: st.GPUs(), dp: st.DP, tp: st.TP,
			time: m.Time(),
		}
	}); err != nil {
		s.err = err
		return nil
	}
	return cands
}

// latencyQuantiles returns up to k representative bottleneck bounds drawn
// from the candidate latency distribution. The result is deduplicated:
// identical bounds would DP-compose identical pipelines, so repeats only
// waste compose work.
func latencyQuantiles(cands []stageCand, k int) []float64 {
	times := make([]float64, 0, len(cands))
	for _, c := range cands {
		times = append(times, c.time)
	}
	sort.Float64s(times)
	var out []float64
	if len(times) <= k {
		out = times
	} else {
		out = make([]float64, 0, k)
		for i := 0; i < k; i++ {
			idx := (len(times) - 1) * i / (k - 1)
			out = append(out, times[idx])
		}
	}
	return slices.Compact(out)
}

// composeBounds returns composeScratch's result for every bound, running
// the DP only once per distinct outcome. It relies on admitted-set
// monotonicity: the candidates admitted under bound t are a subset of
// those admitted under t' ≥ t, so the optimum under t' whose own
// bottleneck is b ≤ t is feasible — and therefore still optimal — under
// every bound in [b, t'].
// Likewise a bound with no feasible composition proves every smaller
// bound infeasible. Solving the bound list by descending intervals costs
// one DP per distinct result plan instead of one per bound.
//
// When the optimum under a bound is unique (the generic case: candidate
// latencies carry engine jitter, so exact cost ties between different
// compositions do not occur), the per-bound results are identical to
// running the DP once per bound; TestComposeBoundsMatchesPerBound checks
// this against exactly that reference.
func (s *searcher) composeBounds(cands []stageCand, deg, n int, bounds []float64) [][]parallel.StagePlan {
	results := make([][]parallel.StagePlan, len(bounds))
	scr := newComposeScratch(len(s.graph.Ops), deg, n)
	var solve func(lo, hi int)
	solve = func(lo, hi int) {
		if lo > hi {
			return
		}
		stages, bottleneck := s.composeScratch(cands, deg, n, bounds[hi], scr)
		if stages == nil {
			return // every bound ≤ bounds[hi] is infeasible too
		}
		j := sort.SearchFloat64s(bounds[lo:hi+1], bottleneck) + lo
		for i := j; i <= hi; i++ {
			results[i] = stages
		}
		solve(lo, j-1)
	}
	solve(0, len(bounds)-1)
	return results
}

// composeScratch is the compose DP's reusable flat table: cells carry an
// epoch stamp instead of being reallocated and cleared per bound.
type composeScratch struct {
	numOps, n int
	cost      []float64
	cand      []*stageCand
	stamp     []uint32
	epoch     uint32
	byStart   [][]*stageCand
}

func newComposeScratch(numOps, deg, n int) *composeScratch {
	size := (deg + 1) * (numOps + 1) * (n + 1)
	return &composeScratch{
		numOps: numOps, n: n,
		cost:    make([]float64, size),
		cand:    make([]*stageCand, size),
		stamp:   make([]uint32, size),
		byStart: make([][]*stageCand, numOps),
	}
}

func (scr *composeScratch) idx(k, start, g int) int {
	return (k*(scr.numOps+1)+start)*(scr.n+1) + g
}

// composeScratch runs the inter-operator DP on scr: split ops into
// exactly deg stages over exactly n GPUs minimizing total per-microbatch
// latency subject to every stage ≤ tmax. It returns the stage sequence
// and its bottleneck (the slowest stage's latency), or nil when
// infeasible. Cell (k, start, g) holds the minimal total latency covering
// ops[start:] with exactly k stages using exactly g GPUs.
func (s *searcher) composeScratch(cands []stageCand, deg, n int, tmax float64, scr *composeScratch) ([]parallel.StagePlan, float64) {
	numOps := len(s.graph.Ops)
	const inf = math.MaxFloat64
	scr.epoch++
	byStart := scr.byStart
	for i := range byStart {
		byStart[i] = byStart[i][:0]
	}
	for i := range cands {
		c := &cands[i]
		if c.time <= tmax {
			byStart[c.start] = append(byStart[c.start], c)
		}
	}
	get := func(k, start, g int) (float64, *stageCand) {
		i := scr.idx(k, start, g)
		if scr.stamp[i] != scr.epoch {
			return inf, nil
		}
		return scr.cost[i], scr.cand[i]
	}
	set := func(k, start, g int, cost float64, c *stageCand) {
		i := scr.idx(k, start, g)
		scr.cost[i], scr.cand[i], scr.stamp[i] = cost, c, scr.epoch
	}
	set(0, numOps, 0, 0, nil)
	for k := 1; k <= deg; k++ {
		for start := numOps - 1; start >= 0; start-- {
			for _, c := range byStart[start] {
				for g := c.gpus; g <= n; g++ {
					rest, _ := get(k-1, c.end, g-c.gpus)
					if rest == inf {
						continue
					}
					total := c.time + rest
					if cur, _ := get(k, start, g); total < cur {
						set(k, start, g, total, c)
					}
				}
			}
		}
	}
	if cost, _ := get(deg, 0, n); cost == inf {
		return nil, 0
	}
	// Reconstruct the stage sequence front to back.
	stages := make([]parallel.StagePlan, 0, deg)
	var bottleneck float64
	start, g := 0, n
	for k := deg; k >= 1; k-- {
		_, c := get(k, start, g)
		if c == nil {
			return nil, 0
		}
		stages = append(stages, parallel.StagePlan{OpStart: c.start, OpEnd: c.end, DP: c.dp, TP: c.tp})
		if c.time > bottleneck {
			bottleneck = c.time
		}
		start, g = c.end, g-c.gpus
	}
	if start != numOps || g != 0 {
		return nil, 0
	}
	return stages, bottleneck
}
