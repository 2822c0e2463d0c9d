package planner

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/model"
)

// dpTestMatrix is the grid matrix the determinism tests sweep: the
// models the existing planner/search/perfdb tests exercise, on a big and
// a small device, across every (N, S) the profiler enumerates. It
// deliberately includes tie-heavy inputs (uniform transformer layers,
// MoE models memory-tight on the A10) — exact (BComp, LComm) ties are
// where enumeration order and float regrouping would show first.
func dpTestMatrix() []core.Grid {
	var grids []core.Grid
	for _, tc := range []struct {
		model string
		gb    int
	}{
		{"GPT-1.3B", 128},
		{"WRes-1B", 256},
		{"MoE-1.3B", 256},
		{"MoE-10B", 256},
	} {
		w := model.Workload{Model: tc.model, GlobalBatch: tc.gb}
		for _, typ := range []string{"A40", "A10"} {
			g := model.MustBuildClustered(tc.model)
			grids = append(grids, core.Enumerate(w, len(g.Ops), []string{typ}, 16)...)
		}
	}
	return grids
}

// planVariant is one way of planning a grid.
type planVariant struct {
	name string
	plan func(*model.Graph, core.Grid) (*GridPlan, error)
}

// plannerVariants is the parity matrix's axis: production PlanGrid first
// (prefix DP + incremental sweep), then every other combination of
// enumerator (prefix DP vs the exhaustive reference) and Pareto reduction
// (incremental sweep vs the post-hoc sorted reference), all from
// reference_test.go. All four must emit bit-identical GridPlans.
func plannerVariants() []planVariant {
	pl := New()
	ref := func(exhaustive, sorted bool) func(*model.Graph, core.Grid) (*GridPlan, error) {
		return func(g *model.Graph, grid core.Grid) (*GridPlan, error) {
			return referencePlanGrid(pl, g, grid, exhaustive, sorted)
		}
	}
	return []planVariant{
		{"dp+sweep", pl.PlanGrid},
		{"dp+sorted", ref(false, true)},
		{"exhaustive+sweep", ref(true, false)},
		{"exhaustive+sorted", ref(true, true)},
	}
}

// TestPrefixDPMatchesExhaustive is the planner's frontier-stability
// proof: across the whole grid matrix, every enumerator × reduction
// combination emits GridPlans bit-identical to production PlanGrid —
// same feasibility, same partition count, deep-equal proxy and frontier
// (plans, metrics, assignments, ideals). The exhaustive enumerator
// offers candidates in lexicographic order and the DP in
// colexicographic order, so agreement through the shared sweep also
// proves the staircase's order independence on real populations.
func TestPrefixDPMatchesExhaustive(t *testing.T) {
	variants := plannerVariants()
	for _, grid := range dpTestMatrix() {
		g := model.MustBuildClustered(grid.Workload.Model)
		want, err := variants[0].plan(g, grid)
		if err != nil {
			t.Fatalf("%v: %s: %v", grid, variants[0].name, err)
		}
		for _, v := range variants[1:] {
			got, err := v.plan(g, grid)
			if err != nil {
				t.Fatalf("%v: %s: %v", grid, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %s GridPlan diverged from %s\n%s: feasible=%v evaluated=%d frontier=%d proxy=%+v\n%s: feasible=%v evaluated=%d frontier=%d proxy=%+v",
					grid, v.name, variants[0].name,
					v.name, got.Feasible, got.CandidatesEvaluated, len(got.Frontier), got.Proxy,
					variants[0].name, want.Feasible, want.CandidatesEvaluated, len(want.Frontier), want.Proxy)
			}
		}
	}
}

// TestSweepFrontierTieStress drives the full variant matrix over the
// zero-load graphs — the strongest exact-tie stress available: uniform
// compute operators make fractional shares exactly equal and zero-load
// operators make them exactly 0, so the candidate populations contain
// large groups with identical (BComp, LComm) whose surviving member is
// decided purely by the lexicographic-rank tie rule. Any tie-break drift
// between the sweep staircase and the sorted reference, or any offer-
// order sensitivity between the two enumerators, shows here first.
func TestSweepFrontierTieStress(t *testing.T) {
	variants := plannerVariants()
	for _, tc := range []struct{ ops, zero, n, s int }{
		{12, 3, 8, 2}, {12, 3, 8, 4}, {12, 3, 16, 6},
		{16, 2, 16, 8}, {16, 4, 16, 5}, {10, 5, 16, 3},
	} {
		g := zeroLoadGraph(tc.ops, tc.zero)
		gr := grid(g.Name, 64, "A40", tc.n, tc.s)
		want, err := variants[0].plan(g, gr)
		if err != nil {
			t.Fatalf("%v: %v", gr, err)
		}
		for _, v := range variants[1:] {
			got, err := v.plan(g, gr)
			if err != nil {
				t.Fatalf("%v: %s: %v", gr, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %s diverged from %s on a tie-stress graph", gr, v.name, variants[0].name)
			}
		}
	}
}

// TestEnumerateCandidatesDPMatchesExhaustive extends the parity proof to
// the unfiltered candidate population (what Fig. 14 measures), including
// emission order — candidate lists are compared element-wise.
func TestEnumerateCandidatesDPMatchesExhaustive(t *testing.T) {
	dp := New()
	for _, grid := range dpTestMatrix() {
		if grid.S == 1 || grid.N < 4 {
			continue // thin grids are covered by the PlanGrid sweep
		}
		g := model.MustBuildClustered(grid.Workload.Model)
		got := dp.EnumerateCandidates(g, grid)
		want := referenceEnumerateCandidates(g, grid)
		if len(got) != len(want) {
			t.Fatalf("%v: %d candidates via DP, %d exhaustive", grid, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%v: candidate %d diverged\ndp:        %+v\nexhaustive: %+v", grid, i, got[i], want[i])
			}
		}
	}
}

// zeroLoadGraph builds an ad-hoc graph mixing zero-load operators
// (FLOPs = Bytes = 0) with uniform compute operators. Zero-load stages
// make ideal shares exactly 0 and uniform ones make them exactly equal —
// the strongest tie stress for assignment normalization and Pareto
// ordering on both enumeration paths.
func zeroLoadGraph(numOps int, zeroEvery int) *model.Graph {
	g := &model.Graph{Name: fmt.Sprintf("zero-load-%d-%d", numOps, zeroEvery), SeqLen: 128}
	for i := 0; i < numOps; i++ {
		op := model.Op{
			Name:       fmt.Sprintf("op%d", i),
			FLOPs:      1e12,
			Bytes:      1e9,
			ParamBytes: 1e6,
			ActBytes:   1e5,
		}
		if zeroEvery > 0 && i%zeroEvery == 0 {
			op.FLOPs, op.Bytes = 0, 0 // reshape/cast-like op: no load
		}
		g.Ops = append(g.Ops, op)
	}
	return g
}

// TestPlannerEdgePartitions covers the degenerate partitions on every
// enumerator × reduction combination: s=1 (single stage), s=numOps (one
// operator per stage), and graphs with zero-load operators, asserting
// path parity plus basic shape invariants.
func TestPlannerEdgePartitions(t *testing.T) {
	type gcase struct {
		name string
		g    *model.Graph
		grid core.Grid
	}
	gpt := model.MustBuildClustered("GPT-1.3B")
	numOps := len(gpt.Ops)
	zg := zeroLoadGraph(12, 3)
	cases := []gcase{
		{"s=1", gpt, core.Grid{Workload: model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}, GPUType: "A40", N: 4, S: 1}},
		{"s=numOps", gpt, core.Grid{Workload: model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}, GPUType: "A40", N: 16, S: numOps}},
		{"zero-load/s=2", zg, core.Grid{Workload: model.Workload{Model: zg.Name, GlobalBatch: 64}, GPUType: "A40", N: 8, S: 2}},
		{"zero-load/s=4", zg, core.Grid{Workload: model.Workload{Model: zg.Name, GlobalBatch: 64}, GPUType: "A40", N: 8, S: 4}},
		{"zero-load/s=numOps", zg, core.Grid{Workload: model.Workload{Model: zg.Name, GlobalBatch: 64}, GPUType: "A10", N: 16, S: 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			variants := plannerVariants()
			got, err := variants[0].plan(tc.g, tc.grid)
			if err != nil {
				t.Fatalf("%s: %v", variants[0].name, err)
			}
			for _, v := range variants[1:] {
				want, err := v.plan(tc.g, tc.grid)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("paths diverged: %s=%+v %s=%+v", variants[0].name, got, v.name, want)
				}
			}
			if wantCount := binom(len(tc.g.Ops)-1, tc.grid.S-1); got.CandidatesEvaluated != wantCount {
				t.Errorf("evaluated %d partitions, want C(%d,%d)=%d",
					got.CandidatesEvaluated, len(tc.g.Ops)-1, tc.grid.S-1, wantCount)
			}
			if !got.Feasible {
				t.Fatal("edge grid should be feasible")
			}
			if err := got.Proxy.Plan.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			if len(got.Proxy.Plan.Stages) != tc.grid.S || got.Proxy.Plan.TotalGPUs() != tc.grid.N {
				t.Errorf("proxy shape %s, want s=%d n=%d", got.Proxy.Plan, tc.grid.S, tc.grid.N)
			}
		})
	}
}

// TestPrefixDPSkipCounting pins the subtree-pruning arithmetic: a grid
// whose graph fits nowhere must still report the full C(O−1, s−1)
// partition count with an empty candidate set, exactly like the
// reference path that visits every partition individually.
func TestPrefixDPSkipCounting(t *testing.T) {
	g := model.MustBuildClustered("MoE-27B") // ≈210 GB state: no A10 grid fits
	for _, s := range []int{2, 3, 5, 8} {
		grid := core.Grid{Workload: model.Workload{Model: "MoE-27B", GlobalBatch: 256}, GPUType: "A10", N: 16, S: s}
		gp, err := New().PlanGrid(g, grid)
		if err != nil {
			t.Fatal(err)
		}
		if gp.Feasible || len(gp.Frontier) != 0 {
			t.Fatalf("s=%d: expected infeasible grid, got %+v", s, gp)
		}
		if want := binom(len(g.Ops)-1, s-1); gp.CandidatesEvaluated != want {
			t.Errorf("s=%d: evaluated %d, want %d", s, gp.CandidatesEvaluated, want)
		}
	}
}

// binom is an independent C(n, k) for the count assertions.
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
	}
	return res
}

// TestPascalTriangle sanity-checks the skip-count table against the
// closed form.
func TestPascalTriangle(t *testing.T) {
	p := pascalTriangle(16)
	for m := 0; m <= 16; m++ {
		for k := 0; k <= 16; k++ {
			if p[m][k] != binom(m, k) {
				t.Fatalf("pascal[%d][%d] = %d, want %d", m, k, p[m][k], binom(m, k))
			}
		}
	}
}

// TestExhaustiveFlagChangesNothingVisible guards the full reference
// (exhaustive enumerator, sorted reduction) itself — once selected by a
// Planner flag, now kept in reference_test.go: it must keep satisfying
// the public invariants production PlanGrid is tested for (feasibility,
// proxy provenance), so the parity tests never compare against a
// degenerate oracle.
func TestExhaustiveFlagChangesNothingVisible(t *testing.T) {
	g := model.MustBuildClustered("WRes-2B")
	gp, err := referencePlanGrid(New(), g, core.Grid{
		Workload: model.Workload{Model: "WRes-2B", GlobalBatch: 512},
		GPUType:  "A40", N: 8, S: 4,
	}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !gp.Feasible || gp.Proxy == nil {
		t.Fatal("reference path lost feasibility")
	}
	onFrontier := false
	for _, c := range gp.Frontier {
		if c == gp.Proxy {
			onFrontier = true
		}
	}
	if !onFrontier {
		t.Fatal("reference proxy not on its frontier")
	}
}
