package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/rng"
	"github.com/sjtu-epcc/arena/internal/trace"
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

// TestCachedParallelFullSearchIsDeterministic asserts that execution
// options never change outcomes: a search on a cache shared across models
// and counts, fanned out over a worker pool, returns outcomes
// bit-identical to a serial search on a fresh cache (Options{}) — same
// plan, same measured result, and the same StageEvals/PlanEvals/
// SearchTime cost accounting.
func TestCachedParallelFullSearchIsDeterministic(t *testing.T) {
	ctx := context.Background()
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
		serial, err := FullSearchCtx(ctx, eng, g, spec, tc.gb, tc.n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// One shared cache across all cases: cross-(model, n) pollution
		// must be impossible by key construction.
		cached, err := FullSearchCtx(ctx, eng, g, spec, tc.gb, tc.n, Options{Cache: cache, Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, cached) {
			t.Errorf("%s n=%d: cached/parallel outcome diverged\nserial: %+v plan %v\ncached: %+v plan %v",
				tc.model, tc.n, serial.Result, serial.Plan, cached.Result, cached.Plan)
		}
		// And again fully warm: every measurement now comes from the memo
		// table.
		warm, err := FullSearchCtx(ctx, eng, g, spec, tc.gb, tc.n, Options{Cache: cache, Workers: 4})
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
	ctx := context.Background()
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

	serial, err := PrunedSearchCtx(ctx, eng, g, spec, 128, 8, gp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := evalcache.New(eng)
	if _, err := FullSearchCtx(ctx, eng, g, spec, 128, 8, Options{Cache: cache, Workers: -1}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	cached, err := PrunedSearchCtx(ctx, eng, g, spec, 128, 8, gp, Options{Cache: cache, Workers: -1})
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
// matches a serial search on a fresh cache bit for bit.
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
	serial, err := FullSearchCtx(context.Background(), eng, g, spec, 128, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FullSearchCtx(context.Background(), eng, g, spec, 128, 8, Options{Cache: cache, Workers: -1})
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

	serial, err := PrunedSearchCtx(context.Background(), eng, g, spec, 128, 8, gp, Options{})
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
	_, err = FullSearchCtx(context.Background(), eng, g, hw.MustLookup("A40"), 128, 4, Options{Cache: evalcache.New(other)})
	if err == nil {
		t.Fatal("want error for cache bound to a different engine")
	}
}

// searchMatrixDigest pins every outcome TestSearchMatrixDigest produces.
// It was recorded from the serial uncached search while that path still
// existed, and the memoized path matched it outcome for outcome: the
// search's one remaining path must keep reproducing it. Update it only
// for a change that is meant to alter plans.
const searchMatrixDigest = "d9a729e087af89e192486b0beec486509893357a944b03aaef1da0fdeb309408"

// TestSearchMatrixDigest pins the full and pruned searches to
// searchMatrixDigest. For each default workload, GPU type and
// power-of-two count up to 16 it runs the full search, then the pruned
// search on every feasible grid; Fig. 2(c)'s one-GPU-per-node 2×A40
// layouts follow. Each workload shares one cache across its types and
// counts, as a perfdb build does.
func TestSearchMatrixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("searches the whole default matrix")
	}
	ctx := context.Background()
	eng := exec.NewEngine(42)
	pl := planner.New()
	h := sha256.New()
	enc := json.NewEncoder(h)
	record := func(label string, out Outcome, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintln(h, label)
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
	}
	point := func(w model.Workload, g *model.Graph, typ string, n int, o Options) {
		spec := hw.MustLookup(typ)
		full, err := FullSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, o)
		record(fmt.Sprintf("full %s %s n=%d gpn=%d", w, typ, n, o.GPUsPerNode), full, err)
		for _, s := range core.PipelineDegrees(n, len(g.Ops)) {
			gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: typ, N: n, S: s})
			if err != nil {
				t.Fatal(err)
			}
			if !gp.Feasible {
				continue
			}
			pruned, err := PrunedSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, gp, o)
			record(fmt.Sprintf("pruned %s %s n=%d s=%d gpn=%d", w, typ, n, s, o.GPUsPerNode), pruned, err)
		}
	}
	build := func(name string) *model.Graph {
		g, err := model.BuildClustered(name)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, w := range trace.DefaultWorkloads() {
		g, o := build(w.Model), Options{Cache: evalcache.New(eng), Workers: -1}
		for _, typ := range []string{"A40", "A10", "V100", "A100"} {
			for _, n := range core.GPUCounts(16) {
				point(w, g, typ, n, o)
			}
		}
	}
	for _, w := range []model.Workload{{Model: "WRes-0.5B", GlobalBatch: 256}, {Model: "GPT-1.3B", GlobalBatch: 128}, {Model: "MoE-1.3B", GlobalBatch: 256}} {
		point(w, build(w.Model), "A40", 2, Options{GPUsPerNode: 1, Cache: evalcache.New(eng), Workers: -1})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchMatrixDigest {
		t.Fatalf("search matrix digest %s, want %s", got, searchMatrixDigest)
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
	out, err := PrunedSearchCtx(context.Background(), eng, g, spec, w.GlobalBatch, 8, jp.GridPlans[best], Options{})
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

// TestComposeBoundsMatchesPerBound checks composeBounds' interval
// collapse against the DP runs it skips: composeScratch once per bound,
// each on a fresh table. The candidate tables are random with distinct
// latencies, which engine jitter guarantees for measured candidates, and
// include all-infeasible and single-candidate tables.
func TestComposeBoundsMatchesPerBound(t *testing.T) {
	r := rng.New(7)
	// check compares both on three ascending bound lists: 24 quantiles as
	// the search draws them, every candidate latency, and 24 random
	// bounds between the extreme latencies (so the lowest bound is not
	// always the fastest candidate's). It reports how many bounds were
	// feasible and how many distinct plans they produced.
	check := func(name string, numOps, deg, n int, cands []stageCand) (feasible, plans int) {
		t.Helper()
		s := &searcher{graph: &model.Graph{Ops: make([]model.Op, numOps)}}
		all := latencyQuantiles(cands, len(cands))
		var random []float64
		if len(all) > 0 {
			for range 24 {
				random = append(random, r.Range(all[0], all[len(all)-1]))
			}
			slices.Sort(random)
		}
		distinct := map[string]bool{}
		for _, bounds := range [][]float64{latencyQuantiles(cands, 24), all, slices.Compact(random)} {
			got := s.composeBounds(cands, deg, n, bounds)
			for i, b := range bounds {
				want, _ := s.composeScratch(cands, deg, n, b, newComposeScratch(numOps, deg, n))
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s: bound %d (%g): composeBounds %v, per-bound DP %v", name, i, b, got[i], want)
				}
				if want != nil {
					feasible++
					distinct[parallel.StagesKey(want)] = true
				}
			}
		}
		return feasible, len(distinct)
	}
	// table draws a random subset of every stage candidate a deg-stage,
	// n-GPU search enumerates, keeping each with probability keep.
	table := func(numOps, deg, n int, keep float64) []stageCand {
		seen := map[float64]bool{}
		var cands []stageCand
		for start := 0; start < numOps; start++ {
			for end := start + 1; end <= numOps; end++ {
				for gpus := 1; gpus <= n-(deg-1); gpus *= 2 {
					for tp := 1; tp <= gpus; tp *= 2 {
						if r.Float64() >= keep {
							continue
						}
						tm := r.Range(0.5, 2) * float64(end-start) / float64(gpus)
						for seen[tm] {
							tm = r.Range(0.5, 2) * float64(end-start) / float64(gpus)
						}
						seen[tm] = true
						cands = append(cands, stageCand{
							start: start, end: end, gpus: gpus, dp: gpus / tp, tp: tp,
							time: tm,
						})
					}
				}
			}
		}
		return cands
	}

	var feasible, multi int
	for trial := 0; trial < 1000; trial++ {
		numOps, n := 1+r.Intn(8), 1<<r.Intn(5)
		deg := 1 + r.Intn(min(n, numOps, core.MaxPipelineDegree))
		f, plans := check(fmt.Sprintf("trial %d (ops=%d deg=%d n=%d)", trial, numOps, deg, n),
			numOps, deg, n, table(numOps, deg, n, r.Range(0.2, 1)))
		feasible += f
		if plans > 1 {
			multi++
		}
	}
	if feasible == 0 || multi == 0 {
		t.Fatalf("random tables exercised too little: %d feasible bounds, %d tables with several plans", feasible, multi)
	}

	// All-infeasible tables: no candidate starts at op 0, or the GPU
	// counts can never add up to n.
	var noStart []stageCand
	for _, c := range table(6, 2, 8, 1) {
		if c.start > 0 {
			noStart = append(noStart, c)
		}
	}
	var tooFew []stageCand
	for _, c := range table(6, 2, 8, 1) {
		if c.gpus == 1 {
			tooFew = append(tooFew, c)
		}
	}
	for _, tc := range []struct {
		name  string
		cands []stageCand
	}{{"no stage at op 0", noStart}, {"GPUs short of n", tooFew}} {
		if f, _ := check(tc.name, 6, 2, 8, tc.cands); f != 0 {
			t.Errorf("%s: %d bounds feasible, want none", tc.name, f)
		}
	}

	// Single-candidate tables: one stage covering the graph on all n GPUs
	// is feasible under its own latency; one covering part of it never is.
	whole := []stageCand{{start: 0, end: 4, gpus: 4, dp: 2, tp: 2, time: 1.5}}
	if f, _ := check("single whole-graph candidate", 4, 1, 4, whole); f != 3 {
		t.Errorf("single whole-graph candidate: %d bounds feasible, want 3 (one per bound list)", f)
	}
	part := []stageCand{{start: 0, end: 3, gpus: 4, dp: 4, tp: 1, time: 1.5}}
	if f, _ := check("single partial candidate", 4, 1, 4, part); f != 0 {
		t.Errorf("single partial candidate: %d bounds feasible, want none", f)
	}
}
