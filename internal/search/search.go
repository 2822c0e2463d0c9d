package search

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

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
	// private cache of its own. It must be bound to an engine of the
	// search's seed: an engine is its seed, so any such engine measures
	// alike.
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

	*buffers // every degree of the session reuses them
}

// buffers are a search session's per-degree buffers. A session takes
// them from bufferPool and puts them back when it ends, so the hundreds
// of searches of a cold perfdb build reuse them instead of regrowing each
// from empty.
type buffers struct {
	jobs  []parallel.StagePlan
	cands []stageCand
	times []float64 // the candidates' latencies, then the degree's bounds
	scr   composeScratch
}

var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// release returns the session's buffers to bufferPool. The compose cells
// and byStart lists point into the scratch's own candidate arrays; they
// are cleared first, so a pooled scratch keeps no array it outgrew alive.
// Nothing else refers to the buffers once the search returns: the plans
// it returns are fresh allocations.
func (s *searcher) release() {
	scr := &s.scr
	clear(scr.cells[:cap(scr.cells)])
	byStart := scr.byStart[:cap(scr.byStart)]
	for i := range byStart {
		clear(byStart[i][:cap(byStart[i])])
	}
	bufferPool.Put(s.buffers)
	s.buffers = nil
}

// evaluate measures a composed plan end to end through the session cache.
func (s *searcher) evaluate(plan *parallel.Plan) (exec.Result, error) {
	return s.cache.Evaluate(s.graph, plan, s.spec, s.globalBatch, s.gpusPerNode)
}

// FullSearchCtx explores the complete adaptive-parallelism space for n
// GPUs of the given type: every pipeline degree, every contiguous
// partition, every power-of-two GPU assignment and intra-stage shape —
// the Alpa workflow. It returns the best measured plan. When ctx is
// cancelled the search stops once its workers finish the candidates they
// hold (a worker takes a few percent of a degree's candidates at a time)
// and returns ctx.Err() with a zero Outcome.
func FullSearchCtx(ctx context.Context, eng *exec.Engine, g *model.Graph, spec hw.GPU, globalBatch, n int, opts Options) (Outcome, error) {
	if n < 1 {
		return Outcome{}, fmt.Errorf("search: n=%d", n)
	}
	s, err := newSearcher(ctx, eng, g, spec, globalBatch, opts)
	if err != nil {
		return Outcome{}, err
	}
	defer s.release()
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
	} else if cache.Engine().Seed() != eng.Seed() {
		return nil, fmt.Errorf("search: cache is bound to an engine of seed %d, the search runs seed %d",
			cache.Engine().Seed(), eng.Seed())
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
		workers: opts.workers(), buffers: bufferPool.Get().(*buffers),
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
	s.times = latencyQuantiles(s.times[:0], cands, 24)
	composed := s.composeBounds(cands, deg, n, s.times)
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
// restriction's range and shape pruning when present. The returned slice
// is the session's buffer, valid until the next degree.
//
// Enumeration, cost accounting and memory feasibility run serially (they
// are cheap and deterministic); the engine measurements then go to the
// shard row by row, fanned out over the session's worker pool. Because
// the engine is pure, the resulting candidate list is bit-identical to
// the serial path.
func (s *searcher) profileStageCandidates(deg, n, numMicro int, restrict *Restriction) []stageCand {
	jobs := s.stageCandidates(deg, n, numMicro, restrict)
	microSamples := float64(s.globalBatch) / float64(numMicro)
	times := slices.Grow(s.times[:0], len(jobs))[:len(jobs)]
	s.times = times
	// A pool handoff costs more than a memo hit, so each worker takes
	// candidates in chunks, about four per worker and degree, and the
	// shard measures a chunk one start row at a time.
	chunk := max(1, len(jobs)/(4*s.workers))
	if err := core.ParallelForCtx(s.ctx, (len(jobs)+chunk-1)/chunk, s.workers, func(k int) {
		lo, hi := k*chunk, min((k+1)*chunk, len(jobs))
		s.shard.MeasureRows(jobs[lo:hi], microSamples, times[lo:hi])
	}); err != nil {
		s.err = err
		return nil
	}
	cands := slices.Grow(s.cands[:0], len(jobs))[:len(jobs)]
	for i, st := range jobs {
		cands[i] = stageCand{
			start: st.OpStart, end: st.OpEnd, gpus: st.GPUs(), dp: st.DP, tp: st.TP,
			time: times[i],
		}
	}
	s.cands = cands
	return cands
}

// stageCandidates enumerates, start-major, the memory-feasible stage
// candidates of a deg-stage pipeline of n GPUs into the session's jobs
// buffer, counting every candidate it profiles (feasible or not) into
// stageEvals.
func (s *searcher) stageCandidates(deg, n, numMicro int, restrict *Restriction) []parallel.StagePlan {
	numOps := len(s.graph.Ops)
	jobs := s.jobs[:0]
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
	s.jobs = jobs
	return jobs
}

// latencyQuantiles returns up to k representative bottleneck bounds drawn
// from the latency distribution of every candidate, in dst's storage:
// the values at ranks (len−1)·i/(k−1) of the sorted latencies. The result
// is deduplicated: identical bounds would DP-compose identical pipelines,
// so repeats only waste compose work. It selects the ranks without
// sorting every latency; a list of at most k (or one holding a NaN) is
// sorted whole.
func latencyQuantiles(dst []float64, cands []stageCand, k int) []float64 {
	times := dst[:0]
	nan := false
	for _, c := range cands {
		times = append(times, c.time)
		nan = nan || c.time != c.time
	}
	if len(times) <= k {
		sort.Float64s(times)
		return slices.Compact(times)
	}
	var buf [24]int
	ranks := buf[:0]
	for i := 0; i < k; i++ {
		ranks = append(ranks, (len(times)-1)*i/(k-1))
	}
	if nan {
		sort.Float64s(times)
	} else {
		selectRanks(times, 0, ranks)
	}
	// Quantile i reads rank ranks[i] ≥ i, so writing it in place at i
	// never clobbers a later read.
	for i, r := range ranks {
		times[i] = times[r]
	}
	return slices.Compact(times[:k])
}

// selectRanks reorders a, whose first element has rank off, so that
// a[r−off] holds the value an ascending sort puts at rank r, for every r
// of the ascending ranks: a quickselect for several targets that
// partitions three ways around a median-of-three pivot, so runs of equal
// latencies settle in one pass. It recurses into the smaller side
// and loops on the larger, so its depth stays logarithmic.
func selectRanks(a []float64, off int, ranks []int) {
	for len(ranks) > 0 {
		if len(a) <= 12 {
			for i := 1; i < len(a); i++ {
				for j := i; j > 0 && a[j] < a[j-1]; j-- {
					a[j], a[j-1] = a[j-1], a[j]
				}
			}
			return
		}
		p := medianOfThree(a[0], a[len(a)/2], a[len(a)-1])
		// a[:lt] < p, a[lt:gt] == p, a[gt:] > p.
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		// Ranks in [off+lt, off+gt) hold p and are settled.
		l := sort.SearchInts(ranks, off+lt)
		r := sort.SearchInts(ranks, off+gt)
		left, right := ranks[:l], ranks[r:]
		if lt <= len(a)-gt {
			selectRanks(a[:lt], off, left)
			a, off, ranks = a[gt:], off+gt, right
		} else {
			selectRanks(a[gt:], off+gt, right)
			a, ranks = a[:lt], left
		}
	}
}

// medianOfThree returns the median of x, y and z.
func medianOfThree(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	return max(x, y)
}

// composeBounds returns the compose DP's result for every bound, running
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
	scr := &s.scr
	scr.load(cands, len(s.graph.Ops), deg, n)
	var solve func(lo, hi int)
	solve = func(lo, hi int) {
		if lo > hi {
			return
		}
		stages, bottleneck := scr.compose(deg, bounds[hi])
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

// composeScratch holds the compose DP's buffers. A search session keeps
// one and every bound and degree reuses it; load prepares it for one
// degree's candidates.
type composeScratch struct {
	numOps, n int
	cells     []composeCell // cell (k, start, g) at (k·(numOps+1)+start)·(n+1)+g
	reduced   []stageCand
	byStart   [][]*stageCand
}

// composeCell is one DP cell: the minimal total latency and the first
// candidate that reaches it.
type composeCell struct {
	cost float64
	c    *stageCand
}

// load sizes scr for deg-stage pipelines of n GPUs over numOps ops and
// files the candidates the DP can pick, grouped by start op in
// candidate order.
//
// A candidate is dropped when an earlier candidate of its run — the
// candidates sharing (start, end, gpus), contiguous in enumeration order —
// matches or beats its latency. That candidate never wins a cell: any
// bound admitting it admits the earlier one; both read the same rest
// cell, so by monotone float addition the earlier one costs no more in
// every cell; and the strict-< update lets the earlier one keep a tie.
// Keeping only the fastest shape of each run would not be exact: an
// earlier, slower shape can tie it once rounded into a large total, and
// then the earlier shape wins.
func (scr *composeScratch) load(cands []stageCand, numOps, deg, n int) {
	scr.numOps, scr.n = numOps, n
	size := (deg + 1) * (numOps + 1) * (n + 1)
	scr.cells = slices.Grow(scr.cells[:0], size)[:size]
	reduced := scr.reduced[:0]
	for _, c := range cands {
		if k := len(reduced) - 1; k >= 0 && reduced[k].start == c.start && reduced[k].end == c.end &&
			reduced[k].gpus == c.gpus && reduced[k].time <= c.time {
			continue // kept latencies strictly fall along a run: reduced[k] is its fastest so far
		}
		reduced = append(reduced, c)
	}
	scr.reduced = reduced
	scr.byStart = slices.Grow(scr.byStart[:0], numOps)[:numOps]
	for i := range scr.byStart {
		scr.byStart[i] = scr.byStart[i][:0]
	}
	for i := range reduced {
		c := &reduced[i]
		scr.byStart[c.start] = append(scr.byStart[c.start], c)
	}
}

func (scr *composeScratch) idx(k, start, g int) int {
	return (k*(scr.numOps+1)+start)*(scr.n+1) + g
}

// compose runs the inter-operator DP over the loaded candidates: split
// ops into exactly deg stages over exactly n GPUs minimizing total
// per-microbatch latency subject to every stage ≤ tmax. It returns the
// stage sequence and its bottleneck (the slowest stage's latency), or nil
// when infeasible. Cell (k, start, g) holds the minimal total latency
// covering ops[start:] with exactly k stages using exactly g GPUs.
//
// Only cells that can reach the answer (deg, 0, n) and can be finite are
// computed. Every stage covers at least one op and one GPU, so level
// k < deg needs start in [deg−k, numOps−k] and g in [k, n−(deg−k)], and
// a candidate there needs end ≤ numOps−(k−1) and g ≥ gpus+(k−1) to leave
// room for the k−1 stages behind it; level 1 takes only candidates ending
// at numOps, at g = gpus; level deg is the single cell (0, n). Each
// computed cell follows the full table's recurrence, candidate order and
// strict-< tie-break, so its value is bit-identical to it, and every cell
// it reads lies in the computed region of the level below.
// TestComposeMatchesRetired checks this against a copy of the full-table
// DP.
func (scr *composeScratch) compose(deg int, tmax float64) ([]parallel.StagePlan, float64) {
	numOps, n := scr.numOps, scr.n
	const inf = math.MaxFloat64
	cells := scr.cells
	cells[scr.idx(0, numOps, 0)] = composeCell{}
	for k := 1; k <= deg; k++ {
		startLo, startHi := deg-k, numOps-k
		gLo, gHi := k, n-(deg-k)
		if k == deg {
			startHi, gLo = 0, n
		}
		endMax := numOps - (k - 1)
		for start := startHi; start >= startLo; start-- {
			row := scr.idx(k, start, 0)
			for g := gLo; g <= gHi; g++ {
				cells[row+g] = composeCell{cost: inf}
			}
			for _, c := range scr.byStart[start] {
				if c.time > tmax || c.end > endMax {
					continue
				}
				lo, hi := max(gLo, c.gpus+k-1), gHi
				if k == 1 {
					if c.end != numOps {
						continue
					}
					hi = min(hi, c.gpus)
				}
				rest := scr.idx(k-1, c.end, 0) - c.gpus
				for g := lo; g <= hi; g++ {
					r := cells[rest+g].cost
					if r == inf {
						continue
					}
					if total := c.time + r; total < cells[row+g].cost {
						cells[row+g] = composeCell{cost: total, c: c}
					}
				}
			}
		}
	}
	if cells[scr.idx(deg, 0, n)].cost == inf {
		return nil, 0
	}
	// Reconstruct the stage sequence front to back.
	stages := make([]parallel.StagePlan, 0, deg)
	var bottleneck float64
	start, g := 0, n
	for k := deg; k >= 1; k-- {
		c := cells[scr.idx(k, start, g)].c
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
