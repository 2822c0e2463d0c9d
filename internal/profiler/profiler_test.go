package profiler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/planner"
)

func testSetup(t *testing.T) (*exec.Engine, *CommTable) {
	t.Helper()
	eng := exec.NewEngine(42)
	ct, err := OfflineSampleComm(eng, []string{"A40", "A10", "A100", "V100"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ct
}

func gridPlan(t *testing.T, modelName string, gb int, typ string, n, s int) (*model.Graph, *planner.GridPlan) {
	t.Helper()
	g, err := model.BuildClustered(modelName)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.Grid{
		Workload: model.Workload{Model: modelName, GlobalBatch: gb},
		GPUType:  typ, N: n, S: s,
	}
	gp, err := planner.New().PlanGrid(g, grid)
	if err != nil {
		t.Fatal(err)
	}
	return g, gp
}

func TestInterpolationAccuracy(t *testing.T) {
	// The profiler's volume interpolation should track the engine's
	// measured collectives within a few percent at unseen volumes.
	eng, ct := testSetup(t)
	topo := hw.Topology{GPUType: "A40", Workers: 4, CrossNode: true, NICShare: 2}
	a40 := hw.MustLookup("A40")
	for _, v := range []float64{3e4, 7e5, 2.3e7, 9e8, 1.7e10} {
		got, err := ct.Interpolate(hw.AllReduce, topo, v)
		if err != nil {
			t.Fatal(err)
		}
		want := eng.CollectiveTime(&a40, hw.AllReduce, topo, v)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("volume %g: interpolated %v vs measured %v", v, got, want)
		}
	}
}

// TestCommTableKeys pins the table's key strings, the missing-sample
// error text, and the key normalization, and checks that a lookup
// allocates nothing.
func TestCommTableKeys(t *testing.T) {
	_, ct := testSetup(t)
	keys := ct.Keys()
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	if got := hex.EncodeToString(sum[:]); len(keys) != 285 || got != "434e3c3d6c5ed45ec2b4f20333b6c7b58a080b3864e37e44bd37e45d27c087f5" {
		t.Errorf("Keys() = %d keys with digest %s, want 285 with the recorded digest", len(keys), got)
	}
	for topo, want := range map[hw.Topology]string{
		{GPUType: "H100", Workers: 2}:                  "profiler: no offline samples for all-reduce|H100/2/intra",
		{GPUType: "A40", Workers: 32, CrossNode: true}: "profiler: no offline samples for all-reduce|A40/32/inter/share1",
	} {
		if _, err := ct.Interpolate(hw.AllReduce, topo, 1e6); err == nil || err.Error() != want {
			t.Errorf("Interpolate(%v) error = %v, want %q", topo, err, want)
		}
	}
	// An intra-node ring ignores NICShare; a cross-node one reads a
	// share below 1 as 1.
	same := [][]hw.Topology{
		{{GPUType: "A40", Workers: 4}, {GPUType: "A40", Workers: 4, NICShare: 1}, {GPUType: "A40", Workers: 4, NICShare: 4}},
		{{GPUType: "A40", Workers: 8, CrossNode: true}, {GPUType: "A40", Workers: 8, CrossNode: true, NICShare: -3}, {GPUType: "A40", Workers: 8, CrossNode: true, NICShare: 1}},
	}
	for _, topos := range same {
		want, err := ct.Interpolate(hw.AllReduce, topos[0], 3e7)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos[1:] {
			if got, err := ct.Interpolate(hw.AllReduce, topo, 3e7); err != nil || got != want {
				t.Errorf("Interpolate(%v) = %v, %v; want %v as for %v", topo, got, err, want, topos[0])
			}
		}
	}
	topo := hw.Topology{GPUType: "A40", Workers: 4, CrossNode: true, NICShare: 2}
	if n := testing.AllocsPerRun(100, func() { ct.Interpolate(hw.AllReduce, topo, 1e6) }); n != 0 {
		t.Errorf("Interpolate allocates %v times per call, want 0", n)
	}
}

func TestInterpolationEdgeCases(t *testing.T) {
	_, ct := testSetup(t)
	topo := hw.Topology{GPUType: "A40", Workers: 2, CrossNode: false, NICShare: 1}
	if v, err := ct.Interpolate(hw.AllReduce, topo, 0); err != nil || v != 0 {
		t.Errorf("zero volume: %v, %v", v, err)
	}
	single := hw.Topology{GPUType: "A40", Workers: 1}
	if v, err := ct.Interpolate(hw.AllReduce, single, 1e6); err != nil || v != 0 {
		t.Errorf("single worker: %v, %v", v, err)
	}
	// Extrapolation beyond the sampled range still returns something sane.
	big, err := ct.Interpolate(hw.AllReduce, topo, 5e11)
	if err != nil || big <= 0 {
		t.Errorf("extrapolation: %v, %v", big, err)
	}
	// Missing topology errors.
	missing := hw.Topology{GPUType: "H100", Workers: 2}
	if _, err := ct.Interpolate(hw.AllReduce, missing, 1e6); err == nil {
		t.Error("unsampled topology should error")
	}
}

func TestProfileErrorSmall(t *testing.T) {
	// Fig. 16(a): the profiler's end-to-end estimate stays within ≈10% of
	// direct measurement across models and GPU counts.
	eng, ct := testSetup(t)
	cases := []struct {
		model string
		gb    int
		n, s  int
	}{
		{"WRes-1B", 256, 1, 1},
		{"WRes-1B", 256, 4, 2},
		{"GPT-1.3B", 128, 2, 2},
		{"GPT-1.3B", 128, 8, 2},
		{"MoE-1.3B", 256, 4, 4},
		{"GPT-2.6B", 128, 8, 4},
	}
	for _, c := range cases {
		g, gp := gridPlan(t, c.model, c.gb, "A40", c.n, c.s)
		if !gp.Feasible {
			t.Errorf("%s n=%d s=%d infeasible", c.model, c.n, c.s)
			continue
		}
		pr := New(eng, ct)
		est, err := pr.ProfileGridPlan(g, gp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Evaluate(g, gp.Proxy.Plan, hw.MustLookup("A40"), c.gb)
		if err != nil || !res.Fits {
			t.Fatalf("%s: engine eval failed", c.model)
		}
		relErr := math.Abs(est.IterTime-res.IterTime) / res.IterTime
		if relErr > 0.12 {
			t.Errorf("%s n=%d s=%d: profiling error %.1f%% too large", c.model, c.n, c.s, 100*relErr)
		}
	}
}

func TestProfilerCheaperThanOracle(t *testing.T) {
	// Fig. 16(b): single-device disaggregated profiling costs a fraction
	// of direct multi-GPU measurement.
	eng, ct := testSetup(t)
	g, gp := gridPlan(t, "GPT-2.6B", 128, "A40", 8, 4)
	pr := New(eng, ct)
	est, err := pr.ProfileGridPlan(g, gp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Evaluate(g, gp.Proxy.Plan, hw.MustLookup("A40"), 128)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exec.DirectMeasureCost(res, gp.Proxy.Plan, Trials)
	if est.ProfileGPUTime >= oracle/2 {
		t.Errorf("profiling cost %v should be well under oracle %v", est.ProfileGPUTime, oracle)
	}
}

func TestComputeRedundancyElimination(t *testing.T) {
	// Repeated transformer layers must collapse to few unique
	// configurations (§3.4 observation (ii)).
	eng, ct := testSetup(t)
	g, gp := gridPlan(t, "GPT-1.3B", 128, "A40", 4, 2)
	pr := New(eng, ct)
	est, err := pr.ProfileGridPlan(g, gp)
	if err != nil {
		t.Fatal(err)
	}
	if est.UniqueOps >= est.TotalOps {
		t.Errorf("no redundancy eliminated: %d unique of %d", est.UniqueOps, est.TotalOps)
	}
}

func TestCrossGridCacheReuse(t *testing.T) {
	// Profiling a second grid with overlapping configurations reuses the
	// cache: its incremental cost is lower (§5.8: "skipping repeated
	// operators across grids").
	eng, ct := testSetup(t)
	g, gp1 := gridPlan(t, "GPT-1.3B", 128, "A40", 4, 2)
	_, gp2 := gridPlan(t, "GPT-1.3B", 128, "A40", 4, 4)

	fresh := New(eng, ct)
	est2Fresh, err := fresh.ProfileGridPlan(g, gp2)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(eng, ct)
	if _, err := warm.ProfileGridPlan(g, gp1); err != nil {
		t.Fatal(err)
	}
	cacheAfterFirst := len(warm.cache)
	est2Warm, err := warm.ProfileGridPlan(g, gp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.cache) < cacheAfterFirst {
		t.Fatal("cache shrank")
	}
	if est2Warm.UniqueOps > est2Fresh.UniqueOps {
		t.Errorf("warm profiling measured more configs (%d) than cold (%d)",
			est2Warm.UniqueOps, est2Fresh.UniqueOps)
	}
	// The estimate itself must not depend on cache state.
	if math.Abs(est2Warm.IterTime-est2Fresh.IterTime) > 1e-12 {
		t.Error("cache reuse changed the estimate")
	}
}

func TestProfileJobAcrossGrids(t *testing.T) {
	eng, ct := testSetup(t)
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	pr := New(eng, ct)
	jp, err := ProfileJobCtx(context.Background(), planner.New(), pr, g, w, []string{"A40", "A10"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jp.Estimates) == 0 {
		t.Fatal("no grids profiled")
	}
	if jp.TotalProfileGPUTime <= 0 {
		t.Error("no profiling cost accounted")
	}
	// Best-grid query per resource.
	r := core.Resource{GPUType: "A40", N: 4}
	best, ok := jp.BestGrid(r)
	if !ok {
		t.Fatal("no best grid for 4×A40")
	}
	if best.N != 4 || best.GPUType != "A40" {
		t.Errorf("best grid %v has wrong resource", best)
	}
	if jp.Estimates[best].Throughput <= 0 {
		t.Error("best throughput should be positive")
	}
	// GPT-1.3B cannot run on 1 A10 (24 GB): that resource has no grids.
	if g, ok := jp.BestGrid(core.Resource{GPUType: "A10", N: 1}); ok {
		t.Errorf("1×A10 should be infeasible for GPT-1.3B, got grid %v", g)
	}
}

func TestProfileGridPlanRejectsInfeasible(t *testing.T) {
	eng, ct := testSetup(t)
	pr := New(eng, ct)
	if _, err := pr.ProfileGridPlan(nil, nil); err == nil {
		t.Fatal("nil grid plan should error")
	}
	g, _ := model.BuildClustered("MoE-27B")
	gp, err := planner.New().PlanGrid(g, core.Grid{
		Workload: model.Workload{Model: "MoE-27B", GlobalBatch: 256},
		GPUType:  "A10", N: 1, S: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.ProfileGridPlan(g, gp); err == nil {
		t.Fatal("infeasible grid should error")
	}
}

func TestOfflineTableCoverage(t *testing.T) {
	_, ct := testSetup(t)
	if len(ct.Keys()) == 0 {
		t.Fatal("empty table")
	}
	if ct.OfflineCostSeconds <= 0 {
		t.Error("offline campaign cost not modeled")
	}
	// The one-shot campaign should be hours, not weeks (§5.8 reports
	// ≈3.5h per node type).
	if h := ct.OfflineCostSeconds / 3600; h > 24 {
		t.Errorf("offline campaign %vh unreasonably long", h)
	}
}
