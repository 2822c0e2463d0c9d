package planner

// This file is the incremental prefix-DP partition enumerator — the
// only enumerator behind PlanGrid and EnumerateCandidates. The
// per-partition reference it replaced (forEachPartition +
// normalizeAssignment, kept as enumerateExhaustive in reference_test.go)
// treats every one of the C(O−1, s−1) partitions as independent: it
// recomputes the fractional GPU shares of all s stages and runs the full
// power-of-two assignment DP (normalizeAssignment, O(s·n·log n)) from
// scratch per partition, even though consecutive partitions differ in a
// single boundary. Once its allocations were pooled, that redundant
// recomputation was the dominant cost of a cold performance-database
// build (~60%).
//
// The DP enumerator removes the redundancy by walking partitions as a
// tree of boundary choices and keying every piece of per-stage state to
// the deepest boundary it depends on:
//
//   - bounds[s-1] = O is fixed; the DFS chooses bounds[s-2], then
//     bounds[s-3], …, finally bounds[0] — right to left, so at depth k
//     the trailing k stages (a partition *suffix*) are determined and
//     shared by the whole subtree;
//   - a stage's fractional share ideal[j] is computed once when its
//     boundary pair is fixed, as the range's load fraction — kept in
//     the intra-stage table, one division per range per job — times N
//     (O(1) per stage instead of O(s) per partition);
//   - the assignment DP's row j — dp[j][r], the minimal squared distance
//     of assigning stages j..s-1 exactly r power-of-two GPUs — depends
//     only on ideal[j..s-1], so it too is filled once per frontier
//     extension and reused by every partition below. At a leaf only the
//     O(log n) cells of row 1 the final minimum can touch are computed,
//     instead of the s full rows the reference path rebuilds;
//   - every row visits only its reachable cells, r ∈ [s−j, n−j], and
//     only the choices p that leave each later stage a GPU: the cells
//     below are never valid and those above are never read (fillRow);
//   - a stage range that fits device memory at no power-of-two GPU
//     count can never appear in any feasible candidate, so the subtree
//     under it is skipped wholesale — after counting its partitions with
//     a binomial table, keeping CandidatesEvaluated exact.
//
// Frontier stability (the ROADMAP's concern): reuse never changes what a
// cell holds, only when it is computed. Cell (j, r) is a pure function
// of (ideal[j..s-1], r) — same recurrence expression, same ascending
// power iteration, same strict-< tie-break as normalizeAssignment — so
// its value is bit-identical however many partitions share it. The one
// behavior the DFS does change is emission order (right-to-left boundary
// choice emits in colexicographic order), and candidate order is
// observable: exact (BComp, LComm) ties resolve by lexicographic
// partition rank, and the Fig. 14 population is reported in
// lexicographic order. enumerateDP therefore hands every sink the
// candidate's lexicographic rank, computed as an O(1) running total over
// suffix-cumulative binomial sums — the population sink uses it to
// rebuild the reference emission order without a comparison sort, the
// sweep frontier (frontier.go) to break metric ties identically to the
// lex-order reference enumerator. A forward (prefix-accumulated)
// recurrence was rejected for exactly this class of reason: it regroups
// the float summation d₀²+(d₁²+(…)) into ((d₀²+d₁²)+…) and flips exact
// ties between mirrored assignments — real ties, e.g. for uniform
// transformer layers. See docs/ARCHITECTURE.md for the full argument.

import (
	"math"
	"sync"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// partitionDP carries the frontier state of one DP enumeration pass over
// a grid. All slices are preallocated once per grid; the DFS mutates
// them in place, and the sink copies anything it retains.
type partitionDP struct {
	intra *intraSelector

	s, n, numOps int

	bounds []int     // bounds[j] = exclusive end of stage j; bounds[s-1] = numOps
	ideal  []float64 // fractional GPU share per stage, valid for fixed stages
	opsPer []int     // operator count per stage, maintained like ideal
	assign []int     // reconstruction buffer for the chosen assignment

	// Suffix assignment DP, flat (s+1) × (n+1). Cell j*(n+1)+r is valid
	// iff its stamp equals rowEpoch[j]; rows are re-stamped instead of
	// cleared when a frontier extension replaces them. Row s is the base
	// (only cell (s, 0) is valid, value 0) and is never re-stamped. Only
	// the reachable cells r ∈ [s−j, n−j] of row j are ever filled (see
	// fillRow).
	dp       []float64
	choice   []int32
	stamp    []uint32
	rowEpoch []uint32

	// feas memoizes per-operator-range memory feasibility for subtree
	// pruning: 0 unknown, 1 some power-of-two count fits, 2 none does.
	feas []int8

	pascal [][]int // pascal[m][k] = C(m, k): skip counts and lex ranks

	// rankCum[i][v] = Σ_{u ≥ v} C(m−u, k−1−i) over boundary positions —
	// suffix-cumulative binomial sums that make a partition's
	// lexicographic rank an O(1) running total along the DFS.
	rankCum [][]int

	evaluated int

	sink candidateSink // consumes leaves, keyed by lexicographic rank
}

// enumerateDP streams every partition of the grid with a feasible GPU
// assignment into the sink and returns the count of partitions
// enumerated: the per-partition reference's candidates, lexicographic
// ranks and partition count with ~4× less work. intra is the grid's
// intra-stage table, covering GPU counts up to grid.N.
func enumerateDP(g *model.Graph, grid core.Grid, intra *intraSelector, sink candidateSink) int {
	numOps := len(g.Ops)
	if grid.S == 1 {
		// A single partition has no boundary frontier to share; evaluate
		// it directly.
		scr := newCandScratch(1, grid.N)
		scr.ideal[0] = intra.frac[rangeIdx(0, numOps)] * float64(grid.N)
		scr.opsPer[0] = numOps
		if assign, bias2 := normalizeAssignment(scr.ideal, grid.N, scr); assign != nil {
			sink.offer([]int{numOps}, assign, scr.opsPer, scr.ideal, bias2, 0)
		}
		return 1
	}
	s, n := grid.S, grid.N
	e := &partitionDP{
		intra: intra,
		s:     s, n: n, numOps: numOps,
		bounds: make([]int, s),
		ideal:  make([]float64, s),
		opsPer: make([]int, s),
		assign: make([]int, s),

		dp:       make([]float64, (s+1)*(n+1)),
		choice:   make([]int32, (s+1)*(n+1)),
		stamp:    make([]uint32, (s+1)*(n+1)),
		rowEpoch: make([]uint32, s+1),

		feas:   make([]int8, (numOps+1)*(numOps+1)),
		pascal: pascalTable(numOps),

		sink: sink,
	}
	// Base row: assigning zero trailing stages costs 0 with 0 GPUs left.
	e.rowEpoch[s] = 1
	e.stamp[s*(n+1)] = 1
	e.bounds[s-1] = numOps
	e.buildRankCum()

	e.descend(s-2, numOps, 0)
	return e.evaluated
}

// buildRankCum precomputes the suffix-cumulative binomial sums behind
// O(1) lexicographic ranking. A partition is the boundary combination
// {bounds[0] < … < bounds[k-1]} ⊂ {1, …, m} (m = numOps−1, k = s−1), and
// its rank in the combinatorial number system is
//
//	Σ_i Σ_{v = bounds[i-1]+1}^{bounds[i]-1} C(m−v, k−1−i),
//
// the combinations that branch off with a smaller boundary at position
// i. With rankCum[i][v] = Σ_{u ≥ v} C(m−u, k−1−i), each position's term
// collapses to rankCum[i][prev+1] − rankCum[i][bounds[i]], and the DFS
// accumulates terms as it fixes boundaries.
func (e *partitionDP) buildRankCum() {
	m, k := e.numOps-1, e.s-1
	e.rankCum = make([][]int, k)
	for i := 0; i < k; i++ {
		row := make([]int, m+2)
		for v := m; v >= 1; v-- {
			row[v] = row[v+1] + e.pascal[m-v][k-1-i]
		}
		e.rankCum[i] = row
	}
}

// descend chooses bounds[j] — the start of stage j+1, whose end hi is
// already fixed — extending the partition frontier one boundary leftward
// per level, then recurses. Stages 0..j must keep at least one operator
// each, so bounds[j] ranges over [j+1, hi-1]. rank carries the partial
// lexicographic rank of the fixed suffix: fixing bounds[j] = b completes
// boundary position j+1's pair (b, hi), whose rank term becomes known.
func (e *partitionDP) descend(j, hi, rank int) {
	for b := j + 1; b < hi; b++ {
		if e.rangeInfeasible(b, hi) {
			// Stage j+1 = [b, hi) fits no power-of-two GPU count: the
			// reference path rejects every partition below this node at
			// the same stage, so skip the subtree and count its
			// C(b-1, j) partitions (placements of bounds[0..j-1]).
			e.evaluated += e.pascal[b-1][j]
			continue
		}
		e.bounds[j] = b
		e.setStage(j+1, b, hi)
		childRank := rank
		if j+1 < e.s-1 {
			childRank += e.rankCum[j+1][b+1] - e.rankCum[j+1][hi]
		}
		if j == 0 {
			e.leaf(b, childRank)
		} else {
			e.fillRow(j + 1)
			e.descend(j-1, b, childRank)
		}
	}
}

// setStage records stage j's fractional GPU share and operator count.
// The share is frac·N, which is bit for bit the reference path's
// load(start, end)/total·N: the table computed the division once per
// range.
func (e *partitionDP) setStage(j, start, end int) {
	e.ideal[j] = e.intra.frac[rangeIdx(start, end)] * float64(e.n)
	e.opsPer[j] = end - start
}

// fillRow computes assignment-DP row j from row j+1 under the current
// ideal[j]. The loop body mirrors normalizeAssignment cell for cell:
// ascending power-of-two candidates, the same cost expression, and
// first-valid-then-strict-< selection, so a cell's value and choice are
// bit-identical to the reference path's for the same stage suffix.
//
// It visits only the reachable cells. Row j assigns the s−j stages
// j..s−1 at least one GPU each, and stages 0..j−1 leave at least one
// GPU each, so only r ∈ [s−j, n−j] can be valid and read; a choice p
// leaves r−p for the s−j−1 later stages, so p ≤ r−(s−j−1). The cells
// and choices skipped are exactly those whose next-row cell the
// reference finds invalid, or whose value no later read consults: they
// are never stamped with the current epoch, so every read sees the
// reference's value.
func (e *partitionDP) fillRow(j int) {
	n := e.n
	row, next := j*(n+1), (j+1)*(n+1)
	e.rowEpoch[j]++
	epoch, nextEpoch := e.rowEpoch[j], e.rowEpoch[j+1]
	idealJ := e.ideal[j]
	dp, choice, stamp := e.dp, e.choice, e.stamp
	later := e.s - j - 1 // stages after j, one GPU each at least
	for r := later + 1; r <= n-j; r++ {
		for p := 1; p <= r-later; p *= 2 {
			if stamp[next+r-p] != nextEpoch {
				continue
			}
			d := float64(p) - idealJ
			cost := d*d + dp[next+r-p]
			if stamp[row+r] != epoch || cost < dp[row+r] {
				dp[row+r] = cost
				choice[row+r] = int32(p)
				stamp[row+r] = epoch
			}
		}
	}
}

// cell1 computes assignment-DP cell (1, r) on demand from the already
// filled row 2, exactly as fillRow would, over the same reachable
// choices. Only the O(log n) cells the leaf's final minimum touches are
// ever computed; the rest of row 1 — which the reference path fills
// wholesale — stays unevaluated.
func (e *partitionDP) cell1(r int) (float64, bool) {
	n := e.n
	row, next := 1*(n+1), 2*(n+1)
	epoch, nextEpoch := e.rowEpoch[1], e.rowEpoch[2]
	dp, choice, stamp := e.dp, e.choice, e.stamp
	ideal1 := e.ideal[1]
	valid := false
	for p := 1; p <= r-(e.s-2); p *= 2 {
		if stamp[next+r-p] != nextEpoch {
			continue
		}
		d := float64(p) - ideal1
		cost := d*d + dp[next+r-p]
		if !valid || cost < dp[row+r] {
			dp[row+r] = cost
			choice[row+r] = int32(p)
			valid = true
		}
	}
	if valid {
		e.stamp[row+r] = epoch
	}
	return dp[row+r], valid
}

// leaf finalizes the partition selected by bounds[0] = b: stage 0 is
// [0, b), every other stage is fixed on the DFS path. It runs the final
// assignment minimum over stage 0's power-of-two choices, reconstructs
// the per-stage assignment from the frontier's choice rows, and offers
// the candidate to the sink at its lexicographic rank.
func (e *partitionDP) leaf(b, rank int) {
	e.evaluated++
	if e.rangeInfeasible(0, b) {
		return
	}
	e.setStage(0, 0, b)
	e.rowEpoch[1]++ // invalidate the previous leaf's sparse row-1 cells

	// dp[0][n] = min over p of (p − ideal[0])² + dp[1][n−p], in the
	// reference recurrence's exact accumulation and tie-break order; p
	// leaves at least one GPU for each of the s−1 later stages.
	var bias2 float64
	var first int
	found := false
	for p := 1; p <= e.n-(e.s-1); p *= 2 {
		v, ok := e.cell1(e.n - p)
		if !ok {
			continue
		}
		d := float64(p) - e.ideal[0]
		cost := d*d + v
		if !found || cost < bias2 {
			bias2, first, found = cost, p, true
		}
	}
	if !found {
		return // no power-of-two assignment sums to exactly n
	}

	assign := e.assign
	assign[0] = first
	r := e.n - first
	for j := 1; j < e.s; j++ {
		assign[j] = int(e.choice[j*(e.n+1)+r])
		r -= assign[j]
	}

	e.sink.offer(e.bounds, assign, e.opsPer, e.ideal, bias2, rank+e.rankCum[0][1]-e.rankCum[0][b])
}

// populationSink materializes every feasible candidate — the sink behind
// EnumerateCandidates (Fig. 14 measures whole grid populations). out
// accumulates candidates in arrival order; slots maps each partition's
// lexicographic rank to 1+its out index, so candidates() rebuilds the
// canonical lexicographic order by a linear slot scan instead of a
// comparison sort. Indices rather than pointers keep the hot loop free
// of GC write barriers. Retained storage is bump-allocated from the
// sink's arena instead of six heap objects per candidate.
type populationSink struct {
	intra *intraSelector

	stages []parallel.StagePlan // stageMetrics trial buffer
	out    []*Candidate
	slots  []int32
	arena  candArena
}

func newPopulationSink(g *model.Graph, grid core.Grid, intra *intraSelector) *populationSink {
	return &populationSink{
		intra:  intra,
		stages: make([]parallel.StagePlan, grid.S),
		slots:  make([]int32, pascalTable(len(g.Ops))[len(g.Ops)-1][grid.S-1]),
	}
}

// offer implements candidateSink: compute the stage shapes and
// communication load through the shared stageMetrics core and retain the
// candidate at its rank slot. Memory-infeasible partitions are dropped.
func (p *populationSink) offer(bounds, assign, opsPer []int, ideal []float64, bias2 float64, rank int) {
	lComm, ok := stageMetrics(p.stages, p.intra, bounds, assign)
	if !ok {
		return
	}
	s := len(bounds)
	cand := p.arena.newCandidate(s)
	cand.BComp = math.Sqrt(bias2)
	cand.LComm = lComm
	cand.Plan.NumMicrobatches = p.intra.numMicro
	copy(cand.Plan.Stages, p.stages[:s])
	copy(cand.OpsPerStage, opsPer)
	copy(cand.GPUsPerStage, assign)
	copy(cand.IdealAssign, ideal)
	p.out = append(p.out, cand)
	p.slots[rank] = int32(len(p.out))
}

// candidates compacts the rank-addressed slots into the canonical
// lexicographic emission order.
func (p *populationSink) candidates() []*Candidate {
	out := make([]*Candidate, 0, len(p.out))
	for _, idx := range p.slots {
		if idx > 0 {
			out = append(out, p.out[idx-1])
		}
	}
	return out
}

// candidateBlock co-allocates a Candidate with its Plan; candArena hands
// them out in chunks.
type candidateBlock struct {
	cand Candidate
	plan parallel.Plan
}

// candArena bump-allocates the retained storage of DP-path candidates —
// the struct pair plus the three copied slices — in fixed-capacity
// chunks, replacing the per-candidate heap allocations that dominated
// the enumeration's residual cost. Chunks are never reused or moved, so
// handed-out pointers and slices stay valid for the arena's lifetime;
// everything is garbage once the last candidate referencing a chunk is
// dropped.
type candArena struct {
	blocks []candidateBlock
	nb     int
	stages []parallel.StagePlan
	ns     int
	ints   []int
	ni     int
	floats []float64
	nf     int
}

// newCandidate returns an arena-backed candidate for s stages with all
// slices sized and zeroed, Plan wired, and full-capacity slice bounds so
// a caller appending to one field can never bleed into a neighbor.
func (a *candArena) newCandidate(s int) *Candidate {
	if a.nb == len(a.blocks) {
		a.blocks = make([]candidateBlock, 256)
		a.nb = 0
	}
	blk := &a.blocks[a.nb]
	a.nb++
	if a.ns+s > len(a.stages) {
		a.stages = make([]parallel.StagePlan, max(1024, s))
		a.ns = 0
	}
	st := a.stages[a.ns : a.ns+s : a.ns+s]
	a.ns += s
	if a.ni+2*s > len(a.ints) {
		a.ints = make([]int, max(2048, 2*s))
		a.ni = 0
	}
	ints := a.ints[a.ni : a.ni+2*s]
	a.ni += 2 * s
	if a.nf+s > len(a.floats) {
		a.floats = make([]float64, max(1024, s))
		a.nf = 0
	}
	fl := a.floats[a.nf : a.nf+s : a.nf+s]
	a.nf += s

	c := &blk.cand
	c.Plan = &blk.plan
	c.Plan.Stages = st
	c.OpsPerStage = ints[:s:s]
	c.GPUsPerStage = ints[s : 2*s : 2*s]
	c.IdealAssign = fl
	return c
}

// rangeInfeasible reports whether operators [start, end) fit device
// memory at no power-of-two GPU count up to the grid's total — the
// condition under which the reference path rejects every partition
// containing the range (stageMetrics reports infeasibility at that stage
// whatever the assignment says). Memoized per range; misses warm the
// intra-stage selector's memo with lookups the surviving partitions
// would pay anyway.
func (e *partitionDP) rangeInfeasible(start, end int) bool {
	k := start*(e.numOps+1) + end
	if v := e.feas[k]; v != 0 {
		return v == 2
	}
	for p := 1; p <= e.n; p *= 2 {
		if e.intra.best(start, end, p) != nil {
			e.feas[k] = 1
			return false
		}
	}
	e.feas[k] = 2
	return true
}

// pascalSize is the shared binomial table's extent. C(64, 32) still fits
// a 64-bit int; graphs beyond 64 operators fall back to a private table.
const pascalSize = 64

var pascalOnce sync.Once
var pascalShared [][]int

// pascalTable returns binomial coefficients C(m, k) for m, k ≤ size —
// the shared table for every realistic graph (the clustered models have
// 16 operators), built once per process.
func pascalTable(size int) [][]int {
	if size > pascalSize {
		return pascalTriangle(size)
	}
	pascalOnce.Do(func() { pascalShared = pascalTriangle(pascalSize) })
	return pascalShared
}

// pascalTriangle builds binomial coefficients C(m, k) for m, k ≤ size.
func pascalTriangle(size int) [][]int {
	t := make([][]int, size+1)
	for m := 0; m <= size; m++ {
		t[m] = make([]int, size+1)
		t[m][0] = 1
		for k := 1; k <= m; k++ {
			t[m][k] = t[m-1][k-1] + t[m-1][k]
		}
	}
	return t
}
