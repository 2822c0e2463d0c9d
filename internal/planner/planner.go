package planner

import (
	"fmt"
	"math"
	"sync"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// Planner holds the tunables of the planning pass, and the intra-stage
// selection tables of the job it planned last.
//
// Those tables are the planner's memo of (operator range, GPU count) →
// (dp, tp) selections. Their entries do not depend on the grid's N, so
// the Planner keeps one idle table per pipeline degree S for the
// (graph, GPU type, global batch) it planned last, and every grid of
// that job plans with them: PlanGrid and EnumerateCandidates take the
// table for their S and put it back. A call for another key drops the
// idle set; a concurrent call whose table is in use builds a private
// one. A Planner is safe for concurrent use. It identifies a graph by
// its pointer, so a caller must not change a graph it has planned with
// the same Planner.
type Planner struct {
	// MaxFrontier caps the Pareto frontier size; larger frontiers are
	// reduced by dropping the higher-communication plan of the most
	// similar partition pair (§3.3).
	MaxFrontier int
	// BiasTolerance widens the "minimum computation bias" filter during
	// proxy selection to plans within (1+BiasTolerance)×min, letting the
	// communication load break near-ties.
	BiasTolerance float64

	mu   sync.Mutex
	key  selectorKey                                // the job the idle tables belong to
	idle [core.MaxPipelineDegree + 1]*intraSelector // by S; nil while in use or not built

	// selections counts the intra-stage selections computed, over every
	// table (for tests).
	selections int
}

// New returns a Planner with the paper-aligned defaults.
func New() *Planner {
	return &Planner{MaxFrontier: 16, BiasTolerance: 0.05}
}

// takeSelector returns the grid's intra-stage table, covering GPU counts
// up to grid.N: the job's idle table for grid.S when there is one, a new
// one otherwise.
func (pl *Planner) takeSelector(g *model.Graph, spec *hw.GPU, grid core.Grid) *intraSelector {
	key := selectorKey{graph: g, gpuType: grid.GPUType, batch: grid.Workload.GlobalBatch}
	var is *intraSelector
	pl.mu.Lock()
	if key != pl.key {
		pl.key, pl.idle = key, [len(pl.idle)]*intraSelector{}
	}
	if grid.S < len(pl.idle) {
		is, pl.idle[grid.S] = pl.idle[grid.S], nil
	}
	pl.mu.Unlock()
	if is == nil {
		is = newIntraSelector(key, spec, grid.S)
	}
	is.reserve(grid.N)
	return is
}

// putSelector returns a table taken by takeSelector. It becomes the idle
// table for its S unless the Planner moved on to another job or already
// holds one.
func (pl *Planner) putSelector(is *intraSelector) {
	pl.mu.Lock()
	pl.selections += is.selections
	is.selections = 0
	if is.key == pl.key && is.s < len(pl.idle) && pl.idle[is.s] == nil {
		pl.idle[is.s] = is
	}
	pl.mu.Unlock()
}

// Candidate is one generated parallelism plan with its two planning
// metrics. Candidates never carry measured latencies.
type Candidate struct {
	Plan  *parallel.Plan
	BComp float64 // computation bias (Eq. 3); lower = better balanced
	LComm float64 // communication load (Eq. 4), seconds-equivalent

	OpsPerStage  []int     // partition shape, for similarity comparisons
	GPUsPerStage []int     // normalized power-of-two assignment
	IdealAssign  []float64 // fractional load-proportional assignment
}

// GridPlan is the planner's output for one grid.
type GridPlan struct {
	Grid     core.Grid
	Feasible bool         // false when no partition fits device memory
	Proxy    *Candidate   // the grid's representative plan (profiled later)
	Frontier []*Candidate // Pareto-optimal candidates (after reduction)

	// CandidatesEvaluated counts enumerated partitions, for cost analysis.
	CandidatesEvaluated int
}

// opRangeStats caches prefix sums of operator loads so per-range loads
// are O(1).
type opRangeStats struct {
	load []float64
}

func newRangeStats(g *model.Graph, spec hw.GPU) *opRangeStats {
	s := &opRangeStats{load: make([]float64, len(g.Ops)+1)}
	for i, op := range g.Ops {
		s.load[i+1] = s.load[i] + OperatorLoad(op, spec)
	}
	return s
}

func (s *opRangeStats) loadOf(i, j int) float64 { return s.load[j] - s.load[i] }

// OperatorLoad is the roofline-based load of Eq. 2 for one training step of
// one sample: L = FLOPs / R(I). Expressed through the ideal kernel time so
// memory-bound operators (R(I) = I·BW) reduce to bytes/bandwidth. Training
// moves ≈ 3× the forward FLOPs and traffic (fwd + 2× bwd).
func OperatorLoad(op model.Op, spec hw.GPU) float64 {
	return spec.IdealKernelTime(3*op.FLOPs, 3*op.Bytes)
}

// PlanGrid produces the proxy plan and Pareto frontier for one grid.
func (pl *Planner) PlanGrid(g *model.Graph, grid core.Grid) (*GridPlan, error) {
	intra, err := pl.gridSelector(g, grid)
	if err != nil {
		return nil, err
	}
	defer pl.putSelector(intra)

	// The incremental sweep judges candidates as they are emitted and
	// materializes only staircase members.
	out := &GridPlan{Grid: grid}
	sink := newSweepFrontier(grid.S, intra)
	out.CandidatesEvaluated = enumerateDP(g, grid, intra, sink)
	frontier := sink.candidates()
	if len(frontier) == 0 {
		return out, nil // infeasible grid: nothing fits memory
	}
	out.Feasible = true
	out.Frontier = pl.reduceFrontier(frontier)
	out.Proxy = pl.selectProxy(out.Frontier)
	return out, nil
}

// EnumerateCandidates returns every generated candidate of the grid (one
// per memory-feasible partition) without Pareto filtering — used by the
// §5.4 case study (Fig. 14), which measures the whole grid population.
func (pl *Planner) EnumerateCandidates(g *model.Graph, grid core.Grid) []*Candidate {
	intra, err := pl.gridSelector(g, grid)
	if err != nil {
		return nil
	}
	defer pl.putSelector(intra)
	sink := newPopulationSink(g, grid, intra)
	enumerateDP(g, grid, intra, sink)
	return sink.candidates()
}

// gridSelector validates the grid and takes its intra-stage table; the
// caller puts it back.
func (pl *Planner) gridSelector(g *model.Graph, grid core.Grid) (*intraSelector, error) {
	spec, err := hw.Lookup(grid.GPUType)
	if err != nil {
		return nil, err
	}
	numOps := len(g.Ops)
	if grid.S < 1 || grid.S > numOps || grid.S > grid.N {
		return nil, fmt.Errorf("planner: grid %v infeasible shape (O=%d)", grid, numOps)
	}
	intra := pl.takeSelector(g, &spec, grid)
	if intra.total <= 0 {
		pl.putSelector(intra)
		return nil, fmt.Errorf("planner: graph %s has zero load", g.Name)
	}
	return intra, nil
}

// candidateSink consumes the enumerator's output, one call per partition
// whose power-of-two GPU assignment exists. Arguments are the caller's
// scratch — a sink retaining any of them must copy. rank is the
// partition's lexicographic index among all C(O−1, s−1) partitions of
// the grid, the canonical candidate order: the population sink uses it
// to reproduce that order without a comparison sort, the sweep frontier
// to resolve exact (BComp, LComm) ties independently of the order
// partitions are discovered in. The sink decides memory feasibility
// itself (via the intra-stage selector), so infeasible partitions are
// simply dropped.
type candidateSink interface {
	offer(bounds, assign, opsPer []int, ideal []float64, bias2 float64, rank int)
}

// candScratch holds normalizeAssignment's working storage: the trial
// buffers and the assignment DP tables, reusable across the partitions
// of one grid so a per-partition caller pays no allocation per call.
// Sinks copy anything they retain, so accepted candidates never alias
// the scratch.
type candScratch struct {
	ideal  []float64
	opsPer []int
	assign []int
	dp     []float64 // flat (s+1) × (n+1) assignment DP table
	choice []int32
	stamp  []uint32 // cell validity epoch — skips the per-partition fill
	epoch  uint32
}

func newCandScratch(s, n int) *candScratch {
	size := (s + 1) * (n + 1)
	return &candScratch{
		ideal:  make([]float64, s),
		opsPer: make([]int, s),
		assign: make([]int, s),
		dp:     make([]float64, size),
		choice: make([]int32, size),
		stamp:  make([]uint32, size),
	}
}

// stageMetrics resolves a partition + GPU assignment into concrete
// stage shapes (written into the caller's buffer, len = stage count)
// and the communication-load metric, folding stages through the shared
// commAccum so the population and sweep paths cannot drift — a
// candidate's bytes depend only on (bounds, assign) and the grid's
// microbatch count, never on which sink computed them. Returns ok=false when a stage has no
// memory-feasible (dp, tp) shape.
func stageMetrics(stages []parallel.StagePlan, intra *intraSelector, bounds, assign []int) (lComm float64, ok bool) {
	var acc commAccum
	start := 0
	for j, end := range bounds {
		choice := intra.best(start, end, assign[j])
		if choice == nil {
			return 0, false // no feasible (dp, tp) for this stage
		}
		stages[j] = parallel.StagePlan{OpStart: start, OpEnd: end, DP: int(choice.dp), TP: int(choice.tp)}
		acc.add(choice)
		start = end
	}
	return acc.load(intra.numMicro), true
}

// forEachPartition enumerates all compositions of numOps operators into s
// non-empty contiguous groups in lexicographic order, invoking fn with
// the running rank and the exclusive end index of each group. fn must not
// retain the slice.
func forEachPartition(numOps, s int, fn func(rank int, bounds []int)) {
	bounds := make([]int, s)
	bounds[s-1] = numOps
	rank := 0
	var rec func(stage, start int)
	rec = func(stage, start int) {
		if stage == s-1 {
			fn(rank, bounds)
			rank++
			return
		}
		// Stage `stage` takes ops [start, end); leave ≥1 op per later stage.
		for end := start + 1; end <= numOps-(s-1-stage); end++ {
			bounds[stage] = end
			rec(stage+1, end)
		}
	}
	rec(0, 0)
}

// normalizeAssignment finds the power-of-two per-stage GPU counts summing
// to n that minimize the squared Euclidean distance to the ideal
// fractional assignment (Eq. 3), via dynamic programming over stages.
// Returns nil when n < len(ideal) (cannot give each stage a GPU). The
// returned slice is scratch-backed; callers retaining it must copy.
func normalizeAssignment(ideal []float64, n int, scr *candScratch) ([]int, float64) {
	s := len(ideal)
	if n < s {
		return nil, 0
	}
	const inf = math.MaxFloat64
	// dp[j][r] (stored flat at j*(n+1)+r): min cost assigning stages j..
	// with r GPUs remaining. Cells are valid only when their stamp matches
	// the current epoch; everything else reads as inf, so no per-partition
	// table fill is needed.
	dp, choice, stamp := scr.dp, scr.choice, scr.stamp
	scr.epoch++
	epoch := scr.epoch
	stamp[s*(n+1)+0] = epoch
	dp[s*(n+1)+0] = 0
	for j := s - 1; j >= 0; j-- {
		row, next := j*(n+1), (j+1)*(n+1)
		for r := 1; r <= n; r++ {
			for p := 1; p <= r; p *= 2 {
				if stamp[next+r-p] != epoch {
					continue
				}
				d := float64(p) - ideal[j]
				cost := d*d + dp[next+r-p]
				if stamp[row+r] != epoch || cost < dp[row+r] {
					dp[row+r] = cost
					choice[row+r] = int32(p)
					stamp[row+r] = epoch
				}
			}
		}
	}
	if stamp[n] != epoch {
		return nil, 0
	}
	assign := scr.assign
	r := n
	for j := 0; j < s; j++ {
		assign[j] = int(choice[j*(n+1)+r])
		r -= assign[j]
	}
	return assign, dp[n]
}
