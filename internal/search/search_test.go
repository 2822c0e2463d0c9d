package search

import (
	"context"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/planner"
)

func fullSearch(t *testing.T, modelName string, gb, n int) (*model.Graph, Outcome) {
	t.Helper()
	g, err := model.BuildClustered(modelName)
	if err != nil {
		t.Fatal(err)
	}
	out, err := FullSearchCtx(context.Background(), exec.NewEngine(42), g, hw.MustLookup("A40"), gb, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, out
}

func TestFullSearchFindsValidPlan(t *testing.T) {
	g, out := fullSearch(t, "GPT-1.3B", 128, 4)
	if !out.Feasible() {
		t.Fatal("no feasible plan found")
	}
	if err := out.Plan.Validate(g); err != nil {
		t.Fatal(err)
	}
	if out.Plan.TotalGPUs() != 4 {
		t.Errorf("plan uses %d GPUs, want 4", out.Plan.TotalGPUs())
	}
	if out.StageEvals == 0 || out.SearchTime <= 0 {
		t.Error("search cost not accounted")
	}
}

func TestFullSearchBeatsPureDP(t *testing.T) {
	// The searched optimum must be at least as good as static DP wherever
	// DP is feasible (it is in the search space).
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	for _, tc := range []struct {
		model string
		gb, n int
	}{
		{"MoE-1.3B", 256, 8},
		{"WRes-1B", 256, 4},
		{"GPT-1.3B", 128, 8},
	} {
		g, err := model.BuildClustered(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		out, err := FullSearchCtx(context.Background(), eng, g, spec, tc.gb, tc.n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := eng.Evaluate(g, parallel.PureDP(g, tc.n), spec, tc.gb)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Fits && out.Result.Throughput < dp.Throughput*0.999 {
			t.Errorf("%s: search (%v) lost to pure DP (%v)", tc.model, out.Result.Throughput, dp.Throughput)
		}
	}
}

func TestFullSearchHandlesOOMModels(t *testing.T) {
	// GPT-2.6B pure DP OOMs on V100; the search must still find an AP plan
	// (the paper's Case#2: AP unlocks denser allocations).
	g, err := model.BuildClustered("GPT-2.6B")
	if err != nil {
		t.Fatal(err)
	}
	out, err := FullSearchCtx(context.Background(), exec.NewEngine(42), g, hw.MustLookup("V100"), 128, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible() {
		t.Fatal("search should find a feasible AP plan on 4×V100")
	}
	if len(out.Plan.Stages) == 1 && out.Plan.Stages[0].TP == 1 {
		t.Errorf("found plan %s should not be pure DP (it OOMs)", out.Plan)
	}
}

func TestSearchSingleGPU(t *testing.T) {
	g, out := fullSearch(t, "WRes-0.5B", 256, 1)
	if !out.Feasible() {
		t.Fatal("single-GPU plan should exist")
	}
	if out.Plan.TotalGPUs() != 1 || len(out.Plan.Stages) != 1 {
		t.Errorf("plan = %s", out.Plan)
	}
	_ = g
}

func TestSearchInvalidN(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	if _, err := FullSearchCtx(context.Background(), exec.NewEngine(1), g, hw.MustLookup("A40"), 128, 0, Options{}); err == nil {
		t.Fatal("n=0 should error")
	}
}

func prunedSetup(t *testing.T, modelName string, gb, n int) (*model.Graph, *planner.GridPlan, Outcome, Outcome) {
	t.Helper()
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	g, err := model.BuildClustered(modelName)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullSearchCtx(context.Background(), eng, g, spec, gb, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Select the best grid by engine-evaluated proxy throughput (stand-in
	// for the profiler in this package's tests).
	pl := planner.New()
	var bestGP *planner.GridPlan
	var bestThr float64
	w := model.Workload{Model: modelName, GlobalBatch: gb}
	for _, s := range core.PipelineDegrees(n, len(g.Ops)) {
		gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: "A40", N: n, S: s})
		if err != nil {
			t.Fatal(err)
		}
		if !gp.Feasible {
			continue
		}
		res, err := eng.Evaluate(g, gp.Proxy.Plan, spec, gb)
		if err != nil || !res.Fits {
			continue
		}
		if bestGP == nil || res.Throughput > bestThr {
			bestGP, bestThr = gp, res.Throughput
		}
	}
	if bestGP == nil {
		t.Fatal("no feasible grid")
	}
	pruned, err := PrunedSearchCtx(context.Background(), eng, g, spec, gb, n, bestGP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, bestGP, full, pruned
}

func TestPrunedSearchQualityAndCost(t *testing.T) {
	// §5.4: pruned search retains ≈96% of Alpa's plan quality at a
	// fraction of the search cost.
	for _, tc := range []struct {
		model string
		gb, n int
	}{
		{"GPT-1.3B", 128, 4},
		{"WRes-1B", 256, 4},
		{"MoE-1.3B", 256, 8},
	} {
		g, _, full, pruned := prunedSetup(t, tc.model, tc.gb, tc.n)
		if !pruned.Feasible() {
			t.Fatalf("%s: pruned search found nothing", tc.model)
		}
		if err := pruned.Plan.Validate(g); err != nil {
			t.Fatal(err)
		}
		quality := pruned.Result.Throughput / full.Result.Throughput
		if quality < 0.85 {
			t.Errorf("%s: pruned quality %.2f below 0.85", tc.model, quality)
		}
		if pruned.StageEvals >= full.StageEvals {
			t.Errorf("%s: pruning did not reduce stage evals (%d vs %d)",
				tc.model, pruned.StageEvals, full.StageEvals)
		}
		if pruned.SearchTime >= full.SearchTime {
			t.Errorf("%s: pruning did not reduce search time", tc.model)
		}
	}
}

func TestPrunedSearchRejectsBadInput(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	eng := exec.NewEngine(42)
	if _, err := PrunedSearchCtx(context.Background(), eng, g, hw.MustLookup("A40"), 128, 4, nil, Options{}); err == nil {
		t.Fatal("nil grid plan should error")
	}
	gp, err := planner.New().PlanGrid(g, core.Grid{
		Workload: model.Workload{Model: "GPT-1.3B", GlobalBatch: 128},
		GPUType:  "A40", N: 8, S: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrunedSearchCtx(context.Background(), eng, g, hw.MustLookup("A40"), 128, 4, gp, Options{}); err == nil {
		t.Fatal("mismatched N should error")
	}
}

func TestRestrictionRules(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	spec := hw.MustLookup("A40")
	gp, err := planner.New().PlanGrid(g, core.Grid{
		Workload: model.Workload{Model: "GPT-1.3B", GlobalBatch: 128},
		GPUType:  "A40", N: 4, S: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := BuildRestriction(g, spec, gp.Frontier)
	if r == nil {
		t.Fatal("restriction should exist for a non-empty frontier")
	}
	// Rule 2: a 1-op range of a 16-op model is far below any Pareto
	// stage's load share.
	if r.RangeAllowed(g, 0, 1) {
		t.Error("tiny range should be pruned")
	}
	// A Pareto stage's own range is allowed and shape-pinned (rule 3).
	st := gp.Frontier[0].Plan.Stages[0]
	if !r.RangeAllowed(g, st.OpStart, st.OpEnd) {
		t.Error("frontier stage range should be allowed")
	}
	if !r.ShapeAllowed(st.OpStart, st.OpEnd, st.GPUs(), st.DP, st.TP) {
		t.Error("frontier stage shape should be allowed")
	}
	if r.ShapeAllowed(st.OpStart, st.OpEnd, st.GPUs(), st.DP*7, st.TP) {
		t.Error("mismatched shape on a matched range should be pruned")
	}
	// Unmatched ranges are shape-free.
	if !r.ShapeAllowed(0, 1, 1, 1, 1) {
		t.Error("unmatched ranges should be shape-free")
	}
	// Nil restriction allows everything.
	var nilR *Restriction
	if !nilR.RangeAllowed(g, 0, 1) || !nilR.ShapeAllowed(0, 1, 1, 1, 1) {
		t.Error("nil restriction must allow everything")
	}
}

func TestSearchDeterministic(t *testing.T) {
	_, a := fullSearch(t, "MoE-1.3B", 256, 4)
	_, b := fullSearch(t, "MoE-1.3B", 256, 4)
	if a.Plan.String() != b.Plan.String() || a.Result.Throughput != b.Result.Throughput {
		t.Fatal("full search is not deterministic")
	}
}
