package planner

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

func grid(modelName string, gb int, typ string, n, s int) core.Grid {
	return core.Grid{
		Workload: model.Workload{Model: modelName, GlobalBatch: gb},
		GPUType:  typ, N: n, S: s,
	}
}

func planGrid(t *testing.T, modelName string, gb int, typ string, n, s int) (*model.Graph, *GridPlan) {
	t.Helper()
	g, err := model.BuildClustered(modelName)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := New().PlanGrid(g, grid(modelName, gb, typ, n, s))
	if err != nil {
		t.Fatal(err)
	}
	return g, gp
}

func TestPartitionEnumerationCount(t *testing.T) {
	// The planner must enumerate exactly C(O−1, s−1) partitions (§3.3).
	cases := []struct {
		s, want int
	}{{1, 1}, {2, 15}, {3, 105}, {4, 455}}
	for _, c := range cases {
		_, gp := planGrid(t, "GPT-1.3B", 128, "A40", 8, c.s)
		if gp.CandidatesEvaluated != c.want {
			t.Errorf("s=%d: evaluated %d partitions, want %d", c.s, gp.CandidatesEvaluated, c.want)
		}
	}
}

func TestForEachPartitionShapes(t *testing.T) {
	var count int
	forEachPartition(6, 3, func(rank int, bounds []int) {
		if rank != count {
			t.Fatalf("rank %d at partition %d: ranks must count lexicographic emission", rank, count)
		}
		count++
		if len(bounds) != 3 || bounds[2] != 6 {
			t.Fatalf("bad bounds %v", bounds)
		}
		prev := 0
		for _, b := range bounds {
			if b <= prev {
				t.Fatalf("non-increasing bounds %v", bounds)
			}
			prev = b
		}
	})
	if count != 10 { // C(5,2)
		t.Fatalf("enumerated %d partitions, want 10", count)
	}
}

func TestNormalizeAssignmentOptimal(t *testing.T) {
	// DP result must match brute force on small instances.
	bruteBest := func(ideal []float64, n int) float64 {
		s := len(ideal)
		best := math.MaxFloat64
		var rec func(j, rem int, cost float64)
		rec = func(j, rem int, cost float64) {
			if j == s {
				if rem == 0 && cost < best {
					best = cost
				}
				return
			}
			for p := 1; p <= rem; p *= 2 {
				d := float64(p) - ideal[j]
				rec(j+1, rem-p, cost+d*d)
			}
		}
		rec(0, n, 0)
		return best
	}
	f := func(a, b, c uint8) bool {
		ideal := []float64{float64(a%8) + 0.3, float64(b%8) + 0.7, float64(c%8) + 0.1}
		n := 8
		assign, cost := normalizeAssignment(ideal, n, newCandScratch(len(ideal), n))
		if assign == nil {
			return false
		}
		sum := 0
		for _, g := range assign {
			sum += g
			if g < 1 || g&(g-1) != 0 {
				return false // must be powers of two
			}
		}
		if sum != n {
			return false
		}
		return math.Abs(cost-bruteBest(ideal, n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAssignmentInfeasible(t *testing.T) {
	if assign, _ := normalizeAssignment([]float64{1, 1, 1}, 2, newCandScratch(3, 2)); assign != nil {
		t.Fatal("3 stages cannot share 2 GPUs")
	}
}

func TestProxyPlanValid(t *testing.T) {
	g, gp := planGrid(t, "WRes-1B", 256, "A40", 4, 2)
	if !gp.Feasible || gp.Proxy == nil {
		t.Fatal("grid should be feasible")
	}
	if err := gp.Proxy.Plan.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(gp.Proxy.Plan.Stages) != 2 || gp.Proxy.Plan.TotalGPUs() != 4 {
		t.Fatalf("proxy shape: %s", gp.Proxy.Plan)
	}
}

func TestFrontierNonDominated(t *testing.T) {
	_, gp := planGrid(t, "WRes-2B", 512, "A40", 8, 4)
	if len(gp.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i, a := range gp.Frontier {
		for j, b := range gp.Frontier {
			if i == j {
				continue
			}
			if b.BComp <= a.BComp && b.LComm <= a.LComm &&
				(b.BComp < a.BComp || b.LComm < a.LComm) {
				t.Fatalf("plan %d dominated by plan %d", i, j)
			}
		}
	}
}

func TestProxyOnFrontier(t *testing.T) {
	_, gp := planGrid(t, "GPT-1.3B", 128, "A40", 4, 2)
	found := false
	for _, c := range gp.Frontier {
		if c == gp.Proxy {
			found = true
		}
	}
	if !found {
		t.Fatal("proxy plan must come from the frontier")
	}
}

func TestFrontierReduction(t *testing.T) {
	pl := New()
	pl.MaxFrontier = 2
	g, _ := model.BuildClustered("WRes-2B")
	gp, err := pl.PlanGrid(g, grid("WRes-2B", 512, "A40", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Frontier) > 2 {
		t.Fatalf("frontier not reduced: %d plans", len(gp.Frontier))
	}
	if gp.Proxy == nil {
		t.Fatal("proxy lost during reduction")
	}
}

func TestInfeasibleGrid(t *testing.T) {
	// MoE-27B (≈210 GB Adam state with experts) cannot fit 1 A10 at all.
	g, _ := model.BuildClustered("MoE-27B")
	gp, err := New().PlanGrid(g, grid("MoE-27B", 256, "A10", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if gp.Feasible {
		t.Fatal("MoE-27B on a single A10 should be infeasible")
	}
}

func TestGridShapeErrors(t *testing.T) {
	g, _ := model.BuildClustered("GPT-1.3B")
	if _, err := New().PlanGrid(g, grid("GPT-1.3B", 128, "A40", 2, 4)); err == nil {
		t.Error("s > n should error")
	}
	if _, err := New().PlanGrid(g, grid("GPT-1.3B", 128, "XPU", 4, 2)); err == nil {
		t.Error("unknown GPU should error")
	}
}

func TestOperatorLoadRoofline(t *testing.T) {
	spec := hw.MustLookup("A100")
	compute := model.Op{FLOPs: 1e12, Bytes: 1e6}
	memory := model.Op{FLOPs: 1e6, Bytes: 1e12}
	lc := OperatorLoad(compute, spec)
	lm := OperatorLoad(memory, spec)
	if math.Abs(lc-3e12/spec.PeakFLOPS)/lc > 1e-9 {
		t.Errorf("compute-bound load %v", lc)
	}
	if math.Abs(lm-3e12/spec.MemBandwidth)/lm > 1e-9 {
		t.Errorf("memory-bound load %v", lm)
	}
}

func TestBalancedPartitionWins(t *testing.T) {
	// The planner's core observation (§3.2, Fig. 6): with a fixed pipeline
	// degree, the proxy (balanced) partition outperforms a maximally
	// imbalanced one on the real engine.
	g, gp := planGrid(t, "GPT-1.3B", 128, "A40", 4, 2)
	if !gp.Feasible {
		t.Fatal("grid infeasible")
	}
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")

	proxyRes, err := eng.Evaluate(g, gp.Proxy.Plan, spec, 128)
	if err != nil || !proxyRes.Fits {
		t.Fatalf("proxy eval: %v fits=%v", err, proxyRes.Fits)
	}

	// A maximally imbalanced 1:15 partition keeping the proxy's per-stage
	// GPU shapes.
	imbalanced := &parallel.Plan{
		Stages: []parallel.StagePlan{
			{OpStart: 0, OpEnd: 1, DP: gp.Proxy.Plan.Stages[0].DP, TP: gp.Proxy.Plan.Stages[0].TP},
			{OpStart: 1, OpEnd: len(g.Ops), DP: gp.Proxy.Plan.Stages[1].DP, TP: gp.Proxy.Plan.Stages[1].TP},
		},
		NumMicrobatches: gp.Proxy.Plan.NumMicrobatches,
	}
	imbRes, err := eng.Evaluate(g, imbalanced, spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if imbRes.Fits && imbRes.Throughput >= proxyRes.Throughput {
		t.Errorf("1:15 partition (%v) should lose to proxy (%v)", imbRes.Throughput, proxyRes.Throughput)
	}
}

func TestPlannerDeterministic(t *testing.T) {
	_, gp1 := planGrid(t, "MoE-1.3B", 256, "A40", 4, 2)
	_, gp2 := planGrid(t, "MoE-1.3B", 256, "A40", 4, 2)
	if gp1.Proxy.Plan.String() != gp2.Proxy.Plan.String() {
		t.Fatal("planner not deterministic")
	}
	if gp1.Proxy.BComp != gp2.Proxy.BComp || gp1.Proxy.LComm != gp2.Proxy.LComm {
		t.Fatal("metrics not deterministic")
	}
}

func TestSingleStageGrid(t *testing.T) {
	g, gp := planGrid(t, "GPT-1.3B", 128, "A40", 4, 1)
	if !gp.Feasible {
		t.Fatal("single-stage grid should be feasible on A40")
	}
	if gp.CandidatesEvaluated != 1 {
		t.Errorf("s=1 should evaluate exactly 1 partition, got %d", gp.CandidatesEvaluated)
	}
	if len(gp.Proxy.Plan.Stages) != 1 || gp.Proxy.Plan.TotalGPUs() != 4 {
		t.Errorf("proxy = %s", gp.Proxy.Plan)
	}
	if err := gp.Proxy.Plan.Validate(g); err != nil {
		t.Fatal(err)
	}
}
