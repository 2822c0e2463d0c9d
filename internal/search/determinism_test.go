package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
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

// TestOptionsAcceptSameSeedCache hands a search a cache bound to another
// engine of the search's seed. An engine is its seed, so the cache must
// serve the search, with the outcome a private cache gives.
func TestOptionsAcceptSameSeedCache(t *testing.T) {
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	spec := hw.MustLookup("A40")
	cache := evalcache.New(exec.NewEngine(42))
	shared, err := FullSearchCtx(context.Background(), exec.NewEngine(42), g, spec, 128, 4, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().StageMisses == 0 {
		t.Fatal("the search measured nothing through the cache it was handed")
	}
	private, err := FullSearchCtx(context.Background(), exec.NewEngine(42), g, spec, 128, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, private) {
		t.Errorf("same-seed cache outcome %+v differs from a private cache's %+v", shared, private)
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

// retiredCompose is the compose DP as it ran before the reachable-cell
// restriction and the run reduction: the full (deg+1)×(numOps+1)×(n+1)
// table over every admitted candidate, unset cells infinite.
// TestComposeMatchesRetired holds composeScratch.compose to it bound for
// bound.
func retiredCompose(cands []stageCand, numOps, deg, n int, tmax float64) ([]parallel.StagePlan, float64) {
	const inf = math.MaxFloat64
	idx := func(k, start, g int) int { return (k*(numOps+1)+start)*(n+1) + g }
	size := (deg + 1) * (numOps + 1) * (n + 1)
	cost := make([]float64, size)
	for i := range cost {
		cost[i] = inf
	}
	cand := make([]*stageCand, size)
	byStart := make([][]*stageCand, numOps)
	for i := range cands {
		c := &cands[i]
		if c.time <= tmax {
			byStart[c.start] = append(byStart[c.start], c)
		}
	}
	cost[idx(0, numOps, 0)] = 0
	for k := 1; k <= deg; k++ {
		for start := numOps - 1; start >= 0; start-- {
			for _, c := range byStart[start] {
				for g := c.gpus; g <= n; g++ {
					rest := cost[idx(k-1, c.end, g-c.gpus)]
					if rest == inf {
						continue
					}
					total := c.time + rest
					if i := idx(k, start, g); total < cost[i] {
						cost[i], cand[i] = total, c
					}
				}
			}
		}
	}
	if cost[idx(deg, 0, n)] == inf {
		return nil, 0
	}
	stages := make([]parallel.StagePlan, 0, deg)
	var bottleneck float64
	start, g := 0, n
	for k := deg; k >= 1; k-- {
		c := cand[idx(k, start, g)]
		if c == nil {
			return nil, 0
		}
		stages = append(stages, parallel.StagePlan{OpStart: c.start, OpEnd: c.end, DP: c.dp, TP: c.tp})
		if c.time > bottleneck {
			bottleneck = c.time
		}
		start, g = c.end, g-c.gpus
	}
	if start != numOps || g != 0 {
		return nil, 0
	}
	return stages, bottleneck
}

// composeTable draws a random subset of every stage candidate a
// deg-stage, n-GPU search enumerates, in enumeration order, keeping each
// with probability keep and giving it latency(start, end, gpus).
func composeTable(r *rng.SplitMix64, numOps, deg, n int, keep float64, latency func(start, end, gpus int) float64) []stageCand {
	var cands []stageCand
	for start := 0; start < numOps; start++ {
		for end := start + 1; end <= numOps; end++ {
			for gpus := 1; gpus <= n-(deg-1); gpus *= 2 {
				for tp := 1; tp <= gpus; tp *= 2 {
					if r.Float64() >= keep {
						continue
					}
					cands = append(cands, stageCand{
						start: start, end: end, gpus: gpus, dp: gpus / tp, tp: tp,
						time: latency(start, end, gpus),
					})
				}
			}
		}
	}
	return cands
}

// distinctLatency draws candidate latencies proportional to work per GPU
// with jitter, never repeating one, as engine measurements do.
func distinctLatency(r *rng.SplitMix64) func(start, end, gpus int) float64 {
	seen := map[float64]bool{}
	return func(start, end, gpus int) float64 {
		tm := r.Range(0.5, 2) * float64(end-start) / float64(gpus)
		for seen[tm] {
			tm = r.Range(0.5, 2) * float64(end-start) / float64(gpus)
		}
		seen[tm] = true
		return tm
	}
}

// boundLists returns the three ascending bound lists the compose tests
// run: 24 quantiles as the search draws them, every candidate latency,
// and 24 random bounds between the extreme latencies (so the lowest bound
// is not always the fastest candidate's).
func boundLists(r *rng.SplitMix64, cands []stageCand) [][]float64 {
	all := latencyQuantiles(nil, cands, len(cands))
	var random []float64
	if len(all) > 0 {
		for range 24 {
			random = append(random, r.Range(all[0], all[len(all)-1]))
		}
		slices.Sort(random)
	}
	return [][]float64{latencyQuantiles(nil, cands, 24), all, slices.Compact(random)}
}

// edgeTable is a degenerate candidate table and the number of bounds of
// boundLists it must find feasible.
type edgeTable struct {
	name           string
	numOps, deg, n int
	cands          []stageCand
	feasible       int
}

// edgeTables returns the degenerate tables both compose tests run.
// All-infeasible: no candidate starts at op 0, or the GPU counts can
// never add up to n. Single-candidate: one stage covering the graph on
// all n GPUs is feasible under its own latency (once per bound list);
// one covering part of it never is.
func edgeTables(r *rng.SplitMix64) []edgeTable {
	full := composeTable(r, 6, 2, 8, 1, distinctLatency(r))
	var noStart, tooFew []stageCand
	for _, c := range full {
		if c.start > 0 {
			noStart = append(noStart, c)
		}
		if c.gpus == 1 {
			tooFew = append(tooFew, c)
		}
	}
	return []edgeTable{
		{"no stage at op 0", 6, 2, 8, noStart, 0},
		{"GPUs short of n", 6, 2, 8, tooFew, 0},
		{"single whole-graph candidate", 4, 1, 4, []stageCand{{start: 0, end: 4, gpus: 4, dp: 2, tp: 2, time: 1.5}}, 3},
		{"single partial candidate", 4, 1, 4, []stageCand{{start: 0, end: 3, gpus: 4, dp: 4, tp: 1, time: 1.5}}, 0},
	}
}

// TestComposeMatchesRetired checks the compose DP, restricted to
// reachable cells over the candidates no earlier shape of their run
// dominates, against retiredCompose on every bound: the same stages and
// the same bottleneck bits. One scratch serves every table, as one
// session's serves every degree. Besides random tables with distinct
// latencies it runs tables full of exact ties within and across runs,
// and tables whose totals tie only after rounding (1e16 plus stage
// latencies below its spacing), where the first of the tied shapes must
// still win; plus all-infeasible and single-candidate tables.
func TestComposeMatchesRetired(t *testing.T) {
	r := rng.New(11)
	var scr composeScratch
	check := func(name string, numOps, deg, n int, cands []stageCand) (feasible int) {
		t.Helper()
		scr.load(cands, numOps, deg, n)
		for _, bounds := range boundLists(r, cands) {
			for i, b := range bounds {
				got, gotB := scr.compose(deg, b)
				want, wantB := retiredCompose(cands, numOps, deg, n, b)
				if !reflect.DeepEqual(got, want) || math.Float64bits(gotB) != math.Float64bits(wantB) {
					t.Fatalf("%s: bound %d (%g): compose %v (bottleneck %g), retired DP %v (bottleneck %g)",
						name, i, b, got, gotB, want, wantB)
				}
				if want != nil {
					feasible++
				}
			}
		}
		return feasible
	}

	tied := func(start, end, gpus int) float64 { return float64(1 + r.Intn(3)) }
	rounded := func(start, end, gpus int) float64 {
		if r.Float64() < 0.5 {
			return 1e16 + 2*float64(r.Intn(3))
		}
		return 0.5 * float64(1+r.Intn(4))
	}
	for _, kind := range []struct {
		name    string
		trials  int
		latency func(start, end, gpus int) float64
	}{
		{"distinct", 600, distinctLatency(r)},
		{"tied", 400, tied},
		{"rounded", 400, rounded},
	} {
		var feasible int
		for trial := 0; trial < kind.trials; trial++ {
			numOps, n := 1+r.Intn(8), 1<<r.Intn(5)
			deg := 1 + r.Intn(min(n, numOps, core.MaxPipelineDegree))
			feasible += check(fmt.Sprintf("%s trial %d (ops=%d deg=%d n=%d)", kind.name, trial, numOps, deg, n),
				numOps, deg, n, composeTable(r, numOps, deg, n, r.Range(0.2, 1), kind.latency))
		}
		if feasible == 0 {
			t.Fatalf("%s tables: no feasible bound", kind.name)
		}
	}

	// A rounding tie the retired DP breaks by order: the first stage's two
	// 2-GPU shapes add 1 and 0.5 to the second stage's 1e16, and both sums
	// round to 1e16. The earlier, slower {0 1 2 1} wins; keeping only the
	// fastest shape of each run would pick {0 1 1 2}.
	roundTie := []stageCand{
		{start: 0, end: 1, gpus: 2, dp: 2, tp: 1, time: 1},
		{start: 0, end: 1, gpus: 2, dp: 1, tp: 2, time: 0.5},
		{start: 1, end: 2, gpus: 2, dp: 2, tp: 1, time: 1e16},
	}
	if f := check("rounding tie", 2, 2, 4, roundTie); f == 0 {
		t.Fatal("rounding tie: no feasible bound")
	}
	if got, _ := retiredCompose(roundTie, 2, 2, 4, 1e16); len(got) == 0 || got[0] != (parallel.StagePlan{OpStart: 0, OpEnd: 1, DP: 2, TP: 1}) {
		t.Fatalf("rounding tie: retired DP picked %v, want the earlier shape first", got)
	}

	for _, e := range edgeTables(r) {
		if f := check(e.name, e.numOps, e.deg, e.n, e.cands); f != e.feasible {
			t.Errorf("%s: %d bounds feasible, want %d", e.name, f, e.feasible)
		}
	}
}

// TestComposeBoundsMatchesPerBound checks composeBounds' interval
// collapse against the DP runs it skips: compose once per bound, each on
// a fresh scratch. The candidate tables are random with distinct
// latencies, which engine jitter guarantees for measured candidates (the
// collapse is exact only for unique optima), plus the edge tables.
func TestComposeBoundsMatchesPerBound(t *testing.T) {
	r := rng.New(7)
	// check reports how many bounds were feasible and how many distinct
	// plans they produced.
	check := func(name string, numOps, deg, n int, cands []stageCand) (feasible, plans int) {
		t.Helper()
		s := &searcher{graph: &model.Graph{Ops: make([]model.Op, numOps)}, buffers: new(buffers)}
		distinct := map[string]bool{}
		for _, bounds := range boundLists(r, cands) {
			got := s.composeBounds(cands, deg, n, bounds)
			for i, b := range bounds {
				var fresh composeScratch
				fresh.load(cands, numOps, deg, n)
				want, _ := fresh.compose(deg, b)
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

	var feasible, multi int
	for trial := 0; trial < 1000; trial++ {
		numOps, n := 1+r.Intn(8), 1<<r.Intn(5)
		deg := 1 + r.Intn(min(n, numOps, core.MaxPipelineDegree))
		f, plans := check(fmt.Sprintf("trial %d (ops=%d deg=%d n=%d)", trial, numOps, deg, n),
			numOps, deg, n, composeTable(r, numOps, deg, n, r.Range(0.2, 1), distinctLatency(r)))
		feasible += f
		if plans > 1 {
			multi++
		}
	}
	if feasible == 0 || multi == 0 {
		t.Fatalf("random tables exercised too little: %d feasible bounds, %d tables with several plans", feasible, multi)
	}
	for _, e := range edgeTables(r) {
		if f, _ := check(e.name, e.numOps, e.deg, e.n, e.cands); f != e.feasible {
			t.Errorf("%s: %d bounds feasible, want %d", e.name, f, e.feasible)
		}
	}
}
