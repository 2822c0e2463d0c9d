package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
)

// waitGoroutines polls until the goroutine count returns to the baseline,
// failing the test if worker goroutines outlive their search.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestCachedParallelFullSearchIsDeterministic asserts the tentpole
// invariant: the memoized, parallel search path returns outcomes
// bit-identical to the legacy serial uncached path — same plan, same
// measured result, and the same StageEvals/PlanEvals/SearchTime cost
// accounting.
func TestCachedParallelFullSearchIsDeterministic(t *testing.T) {
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	cache := evalcache.New(eng)
	for _, tc := range []struct {
		model string
		gb, n int
	}{
		{"GPT-1.3B", 128, 4},
		{"GPT-1.3B", 128, 8},
		{"WRes-1B", 256, 8},
		{"MoE-1.3B", 256, 4},
	} {
		g, err := model.BuildClustered(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := FullSearch(eng, g, spec, tc.gb, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		// One shared cache across all cases: cross-(model, n) pollution
		// must be impossible by key construction.
		cached, err := FullSearchOpts(eng, g, spec, tc.gb, tc.n, Options{Cache: cache, Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, cached) {
			t.Errorf("%s n=%d: cached/parallel outcome diverged\nserial: %+v plan %v\ncached: %+v plan %v",
				tc.model, tc.n, serial.Result, serial.Plan, cached.Result, cached.Plan)
		}
		// And again fully warm: every measurement now comes from the memo
		// table.
		warm, err := FullSearchOpts(eng, g, spec, tc.gb, tc.n, Options{Cache: cache, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, warm) {
			t.Errorf("%s n=%d: warm-cache outcome diverged", tc.model, tc.n)
		}
	}
	if s := cache.Stats(); s.StageHits == 0 {
		t.Error("shared cache recorded no stage hits across degrees/counts")
	}
}

// TestCachedPrunedSearchIsDeterministic covers the pruned search and the
// full↔pruned cache sharing of one deployment point.
func TestCachedPrunedSearchIsDeterministic(t *testing.T) {
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	pl := planner.New()
	var gp *planner.GridPlan
	for _, s := range core.PipelineDegrees(8, len(g.Ops)) {
		cand, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: "A40", N: 8, S: s})
		if err != nil {
			t.Fatal(err)
		}
		if cand.Feasible {
			gp = cand
			break
		}
	}
	if gp == nil {
		t.Fatal("no feasible grid plan")
	}

	serial, err := PrunedSearch(eng, g, spec, 128, 8, gp)
	if err != nil {
		t.Fatal(err)
	}

	cache := evalcache.New(eng)
	if _, err := FullSearchOpts(eng, g, spec, 128, 8, Options{Cache: cache, Workers: -1}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	cached, err := PrunedSearchOpts(eng, g, spec, 128, 8, gp, Options{Cache: cache, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, cached) {
		t.Errorf("pruned outcome diverged\nserial: %+v plan %v\ncached: %+v plan %v",
			serial.Result, serial.Plan, cached.Result, cached.Plan)
	}
	after := cache.Stats()
	if after.StageHits <= before.StageHits {
		t.Error("pruned search reused no stage measurements from the full search")
	}
}

// TestFullSearchCancellation covers the tentpole's cancellation contract:
// a cancelled context aborts FullSearchCtx promptly with ctx.Err(), leaks
// no goroutines, and a subsequent uncancelled run on the same cache still
// matches the serial uncached reference bit for bit.
func TestFullSearchCancellation(t *testing.T) {
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	cache := evalcache.New(eng)
	before := runtime.NumGoroutine()

	// Pre-cancelled: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FullSearchCtx(ctx, eng, g, spec, 128, 8, Options{Cache: cache, Workers: -1}); err != context.Canceled {
		t.Fatalf("pre-cancelled full search: err = %v, want context.Canceled", err)
	}

	// Cancelled mid-flight, deterministically: the progress hook fires
	// after the first pipeline degree completes.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opts := Options{Cache: cache, Workers: -1, Progress: func(e core.Event) {
		if e.Done == 1 {
			cancel2()
		}
	}}
	if _, err := FullSearchCtx(ctx2, eng, g, spec, 128, 8, opts); err != context.Canceled {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, before)

	// The same session state must still produce the serial reference.
	serial, err := FullSearch(eng, g, spec, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FullSearchOpts(eng, g, spec, 128, 8, Options{Cache: cache, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, warm) {
		t.Errorf("post-cancel outcome diverged from serial reference\nserial: %+v plan %v\nwarm:   %+v plan %v",
			serial.Result, serial.Plan, warm.Result, warm.Plan)
	}
}

// TestPrunedSearchCancellation is the pruned-search half of the contract.
func TestPrunedSearchCancellation(t *testing.T) {
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	pl := planner.New()
	var gp *planner.GridPlan
	for _, s := range core.PipelineDegrees(8, len(g.Ops)) {
		cand, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: "A40", N: 8, S: s})
		if err != nil {
			t.Fatal(err)
		}
		if cand.Feasible {
			gp = cand
			break
		}
	}
	if gp == nil {
		t.Fatal("no feasible grid plan")
	}

	cache := evalcache.New(eng)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrunedSearchCtx(ctx, eng, g, spec, 128, 8, gp, Options{Cache: cache, Workers: -1}); err != context.Canceled {
		t.Fatalf("pre-cancelled pruned search: err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, before)

	serial, err := PrunedSearch(eng, g, spec, 128, 8, gp)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PrunedSearchCtx(context.Background(), eng, g, spec, 128, 8, gp, Options{Cache: cache, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, warm) {
		t.Errorf("post-cancel pruned outcome diverged from serial reference")
	}
}

func TestOptionsRejectForeignCache(t *testing.T) {
	eng := exec.NewEngine(42)
	other := exec.NewEngine(7)
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	_, err = FullSearchOpts(eng, g, hw.MustLookup("A40"), 128, 4, Options{Cache: evalcache.New(other)})
	if err == nil {
		t.Fatal("want error for cache bound to a different engine")
	}
}

// searchPlannerDigest pins TestSearchPlannerDPParity's output. It was
// recorded while planner.Planner still carried the exhaustive enumerator
// and the sorted Pareto reduction as switches, and all four enumerator ×
// reduction combinations produced it.
const searchPlannerDigest = "d9a0fe8e9a36b85d1451a4cfd74561a6fd2d571b71a161d99517f46a32c0cece"

// TestSearchPlannerDPParity carries the planner's fast-path/reference
// equivalence through the layers that consume GridPlans: profile a
// workload, then run the pruned search from its best 8-GPU grid. The job
// profile (estimates and retained grid plans), the chosen grid and the
// search outcome are hashed and must match the digest the planner's
// reference paths produced — the deployment pipeline may not observe
// that they are gone. The planner package compares PlanGrid against
// those references directly; this is the end-to-end pin. Update the
// digest only for a change that is meant to alter plans.
func TestSearchPlannerDPParity(t *testing.T) {
	eng := exec.NewEngine(42)
	spec := hw.MustLookup("A40")
	ct, err := profiler.OfflineSampleComm(eng, []string{"A40"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	g, err := model.BuildClustered(w.Model)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := profiler.ProfileJobCtx(context.Background(), planner.New(), profiler.New(eng, ct), g, w, []string{"A40"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := jp.BestGrid(core.Resource{GPUType: "A40", N: 8})
	if !ok {
		t.Fatal("no feasible grid")
	}
	out, err := PrunedSearch(eng, g, spec, w.GlobalBatch, 8, jp.GridPlans[best])
	if err != nil {
		t.Fatal(err)
	}
	// Grid-keyed maps are flattened in grid-string order for JSON.
	type gridRow struct {
		Estimate *profiler.Estimate
		Plan     *planner.GridPlan
	}
	grids := make([]core.Grid, 0, len(jp.GridPlans))
	for gr := range jp.GridPlans {
		grids = append(grids, gr)
	}
	sort.Slice(grids, func(i, j int) bool { return grids[i].String() < grids[j].String() })
	rows := make([]gridRow, 0, len(grids))
	for _, gr := range grids {
		rows = append(rows, gridRow{jp.Estimates[gr], jp.GridPlans[gr]})
	}
	data, err := json.Marshal(struct {
		Grids   []gridRow
		Best    core.Grid
		Outcome Outcome
	}{rows, best, out})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != searchPlannerDigest {
		t.Fatalf("profile and pruned-search digest %s, want %s", got, searchPlannerDigest)
	}
}
