package planner

// This file is the frontier-aware incremental Pareto sweep — the
// reduction behind PlanGrid. The post-hoc reference it replaced
// (paretoFrontier, kept in reference_test.go) materializes every
// memory-feasible candidate of a grid, sorts the full population and
// sweeps it once; for the 16-operator graphs at s = 8 that is up to
// 6,435 materializations and an O(C log C) sort to keep a frontier of at
// most a few dozen plans. The sweep fuses the reduction
// into candidate emission instead: a staircase of the current
// (BComp, LComm) minima is maintained online, every emitted candidate is
// judged against it in O(log F), and only candidates that enter the
// staircase are ever materialized. Dominated candidates cost one binary
// search plus however many per-stage communication terms it takes for a
// running lower bound of their LComm to cross the staircase — the
// intra-stage selector (intra.go) is queried stage by stage and the scan
// stops at the first stage that proves domination, so most of the
// population never queries intra-stage selection at all.
//
// Equivalence with the reference is an ordering argument. The staircase
// keeps exactly the candidates no other candidate beats under the strict
// partial order "at most equal on both metrics and better on one, or
// exactly tied on both with a smaller lexicographic partition rank".
// That set is a property of the candidate *population*, not of the order
// candidates arrive in — which is what lets the prefix DP (colex
// discovery order) and the test-only exhaustive enumerator (lex order)
// route through one frontier and still emit bit-identical GridPlans. The
// rank tie-break is load-bearing: dropping it would make exact
// (BComp, LComm) ties — which uniform transformer layers and zero-load
// operators produce routinely — fall to whichever duplicate arrives
// first, and the two enumerators arrive in different orders. See docs/ARCHITECTURE.md
// §planner for why the pre-sweep sort had the same tie problem in a
// worse form.

import (
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/parallel"
)

// frontierEntry is one staircase member: a materialized candidate plus
// the lexicographic rank of its partition, the global tie-break.
type frontierEntry struct {
	cand *Candidate
	rank int
}

// sweepFrontier maintains the (BComp, LComm) Pareto staircase online
// under simultaneous minimization: entries are strictly increasing in
// BComp and strictly decreasing in LComm. It implements candidateSink,
// so any enumerator can stream into it.
type sweepFrontier struct {
	intra *intraSelector

	entries []frontierEntry
	stages  []parallel.StagePlan // per-offer trial buffer, copied on accept
}

func newSweepFrontier(s int, intra *intraSelector) *sweepFrontier {
	return &sweepFrontier{
		intra:  intra,
		stages: make([]parallel.StagePlan, s),
	}
}

// offer implements candidateSink: judge one partition + assignment
// against the staircase, materializing it only if it enters. The
// communication load is accumulated stage by stage through the shared
// commAccum (the exact float expressions of the reference path), and the
// scan aborts as soon as the running lower bound strictly exceeds the
// LComm the staircase requires at this BComp — later stages only add
// non-negative terms, so domination is already certain and the remaining
// intra-stage queries are skipped.
func (f *sweepFrontier) offer(bounds, assign, opsPer []int, ideal []float64, bias2 float64, rank int) {
	bComp := math.Sqrt(bias2)
	// pred is the staircase entry with the largest BComp ≤ bComp; its
	// LComm is the minimum over every kept candidate at most as biased,
	// i.e. the bar this candidate's LComm must beat.
	idx := sort.Search(len(f.entries), func(i int) bool { return f.entries[i].cand.BComp > bComp })
	hasPred := idx > 0
	var predL float64
	if hasPred {
		predL = f.entries[idx-1].cand.LComm
	}

	numMicro := f.intra.numMicro
	var acc commAccum
	start := 0
	for j, end := range bounds {
		choice := f.intra.best(start, end, assign[j])
		if choice == nil {
			return // stage infeasible at the assigned GPU count
		}
		f.stages[j] = parallel.StagePlan{OpStart: start, OpEnd: end, DP: int(choice.dp), TP: int(choice.tp)}
		acc.add(choice)
		if hasPred && acc.load(numMicro) > predL {
			return // strictly dominated whatever the remaining stages cost
		}
		start = end
	}
	lComm := acc.load(numMicro)
	if !f.admit(idx, bComp, lComm, rank) {
		return
	}

	cand := &Candidate{
		Plan: &parallel.Plan{
			Stages:          append([]parallel.StagePlan(nil), f.stages...),
			NumMicrobatches: numMicro,
		},
		BComp:        bComp,
		LComm:        lComm,
		OpsPerStage:  append([]int(nil), opsPer...),
		GPUsPerStage: append([]int(nil), assign...),
		IdealAssign:  append([]float64(nil), ideal...),
	}
	f.insert(frontierEntry{cand: cand, rank: rank}, idx)
}

// admit decides whether a candidate with the given metrics enters the
// staircase, judged against pred (the entry before idx): a strictly
// smaller LComm beats pred; an exact dual tie falls to the smaller
// lexicographic rank; anything else is dominated — pred is at least as
// good on both metrics. admit plus insert define the staircase's
// semantics: the kept set is the minima of the strict partial order
// "≤ on both metrics and (< on one, or < on rank with both tied)", a
// property of the candidate population alone, which the order-
// independence tests drive directly with synthetic populations.
func (f *sweepFrontier) admit(idx int, bComp, lComm float64, rank int) bool {
	if idx == 0 {
		return true
	}
	pred := f.entries[idx-1]
	if pred.cand.BComp == bComp && pred.cand.LComm == lComm {
		return rank < pred.rank
	}
	return pred.cand.LComm > lComm
}

// insert splices an accepted entry into the staircase at its BComp
// position, evicting the members it dominates: the contiguous run of
// entries with BComp ≥ its BComp and LComm ≥ its LComm (LComm decreases
// along the staircase, so the run ends at the first smaller LComm). An
// exact-tie replacement is the run of length one starting at pred.
func (f *sweepFrontier) insert(e frontierEntry, idx int) {
	lo := idx
	if idx > 0 && f.entries[idx-1].cand.BComp == e.cand.BComp {
		lo = idx - 1 // equal-bias pred has LComm ≥ ours: part of the evicted run
	}
	hi := lo
	for hi < len(f.entries) && f.entries[hi].cand.LComm >= e.cand.LComm {
		hi++
	}
	if hi == lo {
		f.entries = append(f.entries, frontierEntry{})
		copy(f.entries[lo+1:], f.entries[lo:])
		f.entries[lo] = e
		return
	}
	f.entries[lo] = e
	f.entries = append(f.entries[:lo+1], f.entries[hi:]...)
}

// candidates returns the staircase in ascending-BComp order — the exact
// order the reference sort-and-sweep emits its frontier in.
func (f *sweepFrontier) candidates() []*Candidate {
	if len(f.entries) == 0 {
		return nil
	}
	out := make([]*Candidate, len(f.entries))
	for i, e := range f.entries {
		out[i] = e.cand
	}
	return out
}
