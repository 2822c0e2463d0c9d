package planner

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

func TestPlanHeteroBasic(t *testing.T) {
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	pool := HeteroPool{"A100": 2, "V100": 4}
	plan, err := New().PlanHetero(g, pool, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Budget respected per type.
	demand := map[string]int{}
	for _, st := range plan.Stages {
		demand[st.GPUType] += st.GPUs()
	}
	for typ, n := range demand {
		if n > pool[typ] {
			t.Errorf("plan uses %d×%s, pool has %d", n, typ, pool[typ])
		}
	}
	// Both regions should participate for a 2-stage plan over this pool.
	if len(demand) < 2 {
		t.Errorf("expected a genuinely heterogeneous plan, got %v", demand)
	}
}

func TestPlanHeteroExecutes(t *testing.T) {
	g, err := model.BuildClustered("GPT-2.6B")
	if err != nil {
		t.Fatal(err)
	}
	pool := HeteroPool{"A100": 4, "V100": 4}
	plan, err := New().PlanHetero(g, pool, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewEngine(42)
	res, err := eng.EvaluateHetero(g, plan, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fits || res.Throughput <= 0 {
		t.Fatalf("hetero plan unrunnable: %+v", res)
	}
}

func TestPlanHeteroFasterTypeGetsHeavierStage(t *testing.T) {
	// Wide-ResNet's later layers are heavier; the faster type should host
	// a load share at least proportional to its capability.
	g, err := model.BuildClustered("WRes-1B")
	if err != nil {
		t.Fatal(err)
	}
	pool := HeteroPool{"H100": 2, "V100": 2}
	plan, err := New().PlanHetero(g, pool, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	ref := hw.MustLookup("V100")
	loadOf := func(st exec.HeteroStage) float64 {
		var l float64
		for _, op := range g.Ops[st.OpStart:st.OpEnd] {
			l += OperatorLoad(op, ref)
		}
		return l
	}
	var h100Load, v100Load float64
	for _, st := range plan.Stages {
		switch st.GPUType {
		case "H100":
			h100Load += loadOf(st)
		case "V100":
			v100Load += loadOf(st)
		}
	}
	if h100Load <= v100Load {
		t.Errorf("H100 stages should carry more load (H100=%v V100=%v)", h100Load, v100Load)
	}
}

func TestPlanHeteroBeatsSlowHomogeneous(t *testing.T) {
	// Adding fast GPUs to a slow pool should beat the slow pool alone —
	// the point of the §6 extension.
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewEngine(42)
	pl := New()

	mixed, err := pl.PlanHetero(g, HeteroPool{"A100": 2, "V100": 2}, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	mixedRes, err := eng.EvaluateHetero(g, mixed, 128)
	if err != nil || !mixedRes.Fits {
		t.Fatalf("mixed plan failed: %v", err)
	}

	slow, err := pl.PlanHetero(g, HeteroPool{"V100": 4}, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := eng.EvaluateHetero(g, slow, 128)
	if err != nil || !slowRes.Fits {
		t.Fatalf("slow plan failed: %v", err)
	}
	if mixedRes.Throughput <= slowRes.Throughput {
		t.Errorf("mixed pool (%v) should beat all-V100 (%v)", mixedRes.Throughput, slowRes.Throughput)
	}
}

func TestPlanHeteroValidation(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	if _, err := New().PlanHetero(g, HeteroPool{}, 2, 128); err == nil {
		t.Error("empty pool should error")
	}
	if _, err := New().PlanHetero(g, HeteroPool{"A100": 4}, 0, 128); err == nil {
		t.Error("zero stages should error")
	}
	// A pool too small for the model's memory should fail feasibly.
	if _, err := New().PlanHetero(model.MustBuildClustered("MoE-27B"), HeteroPool{"A10": 1}, 1, 256); err == nil {
		t.Error("infeasible pool should error")
	}
}

func TestHeteroPlanValidateCatchesMistakes(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	bad := &exec.HeteroPlan{
		Stages: []exec.HeteroStage{
			{StagePlan: parallelStage(0, len(g.Ops)/2, 1, 1), GPUType: "A100"},
			{StagePlan: parallelStage(len(g.Ops)/2+1, len(g.Ops), 1, 1), GPUType: "V100"}, // gap
		},
		NumMicrobatches: 8,
	}
	if err := bad.Validate(g); err == nil {
		t.Error("gap should fail validation")
	}
	unknown := &exec.HeteroPlan{
		Stages:          []exec.HeteroStage{{StagePlan: parallelStage(0, len(g.Ops), 1, 1), GPUType: "TPU"}},
		NumMicrobatches: 4,
	}
	if err := unknown.Validate(g); err == nil {
		t.Error("unknown type should fail validation")
	}
}

func TestNearestPow2(t *testing.T) {
	cases := []struct {
		ideal  float64
		budget int
		want   int
	}{
		{0.3, 8, 1}, {1.6, 8, 2}, {3.1, 8, 4}, {7.9, 8, 8}, {12, 8, 8},
		{5, 0, 0}, {2.9, 2, 2},
	}
	for _, c := range cases {
		if got := nearestPow2(c.ideal, c.budget); got != c.want {
			t.Errorf("nearestPow2(%v,%d) = %d, want %d", c.ideal, c.budget, got, c.want)
		}
	}
}

func parallelStage(start, end, dp, tp int) parallel.StagePlan {
	return parallel.StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp}
}

func TestPlanHeteroDeterministic(t *testing.T) {
	// The heterogeneous planner shares forEachPartition with the
	// homogeneous reference path; repeated runs over the same pool must
	// bind stages to types bit-identically.
	g := model.MustBuildClustered("GPT-1.3B")
	pool := HeteroPool{"A100": 2, "V100": 4, "A40": 2}
	first, err := New().PlanHetero(g, pool, 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := New().PlanHetero(g, pool, 3, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

func TestPlanHeteroLoadTiesBindByStageIndex(t *testing.T) {
	// Sixteen single-op stages in two equal-load classes, interleaved:
	// odd-indexed stages are heavy, even-indexed light. The greedy binder
	// hands the fast type to the heaviest stages first; within a load
	// class the winner must be decided by stage index, not by whatever
	// permutation sort.Slice's pdqsort leaves equal elements in (the
	// slice is long enough to leave insertion sort's stable small-n
	// regime, so a bare load comparator scrambles the tie group).
	const nOps = 16
	ops := make([]model.Op, nOps)
	for i := range ops {
		load := 1.0
		if i%2 == 1 {
			load = 2.0
		}
		ops[i] = model.Op{
			Name: fmt.Sprintf("op%02d", i), Kind: model.KindMLP,
			FLOPs: load * 1e12, Bytes: load * 1e9,
			ParamBytes: 1e6, ActBytes: 1e6,
		}
	}
	g := &model.Graph{Name: "tie-synthetic", Family: "gpt", SeqLen: 1024, Ops: ops, ActMemFactor: 1}

	// One op per stage means forEachPartition enumerates exactly one
	// partition, so the binder's choices are the whole plan.
	plan, err := New().PlanHetero(g, HeteroPool{"H100": 4, "V100": 80}, nOps, 128)
	if err != nil {
		t.Fatal(err)
	}
	var h100 []int
	for j, st := range plan.Stages {
		if st.GPUType == "H100" {
			h100 = append(h100, j)
		}
	}
	if len(h100) == 0 {
		t.Fatal("no stage bound to H100; pool sizing assumption broken")
	}
	// The H100 budget is exhausted inside the heavy tie group, and must
	// go to its lowest-indexed members: 1, 3, 5, ...
	for k, j := range h100 {
		if want := 2*k + 1; j != want {
			t.Fatalf("H100 stages = %v; tie group bound out of stage-index order (stage %d, want %d)",
				h100, j, want)
		}
	}
}

func TestPlanHeteroEdgeDegrees(t *testing.T) {
	// Degenerate pipeline degrees mirror the homogeneous edge-partition
	// coverage: a single stage pinned to one type, and one operator per
	// stage across the whole graph.
	g := model.MustBuildClustered("GPT-1.3B")

	single, err := New().PlanHetero(g, HeteroPool{"A100": 4}, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(single.Stages) != 1 || single.Stages[0].OpStart != 0 || single.Stages[0].OpEnd != len(g.Ops) {
		t.Fatalf("s=1 plan should span the graph: %+v", single.Stages)
	}

	perOp, err := New().PlanHetero(g, HeteroPool{"A100": 24, "V100": 24}, len(g.Ops), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := perOp.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(perOp.Stages) != len(g.Ops) {
		t.Fatalf("s=numOps plan has %d stages, want %d", len(perOp.Stages), len(g.Ops))
	}
	for j, st := range perOp.Stages {
		if st.OpEnd-st.OpStart != 1 {
			t.Fatalf("stage %d spans %d ops, want 1", j, st.OpEnd-st.OpStart)
		}
	}

	if _, err := New().PlanHetero(g, HeteroPool{"A100": 4}, len(g.Ops)+1, 128); err == nil {
		t.Error("s > numOps should error")
	}
}
