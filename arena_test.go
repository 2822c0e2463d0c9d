// Tests of the public facade: the API a downstream user programs against.
package arena_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

func TestQuickstartFlow(t *testing.T) {
	// The doc-comment quick start must work end to end.
	eng := arena.NewEngine(42)
	graph := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")

	pl := arena.NewPlanner()
	grid := arena.Grid{
		Workload: arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128},
		GPUType:  "A40", N: 4, S: 2,
	}
	gp, err := pl.PlanGrid(graph, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !gp.Feasible || gp.Proxy == nil {
		t.Fatal("grid should be feasible")
	}
	res, err := eng.Evaluate(graph, gp.Proxy.Plan, spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fits || res.Throughput <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestCatalogAndClusters(t *testing.T) {
	if len(arena.GPUCatalog()) != 6 {
		t.Error("catalog should have the 6 Table 1 GPUs")
	}
	if arena.ClusterSim().TotalGPUs() != 1280 {
		t.Error("simulated cluster should have 1280 GPUs")
	}
	if len(arena.ModelNames()) != 14 {
		t.Errorf("expected 14 model variants, got %d", len(arena.ModelNames()))
	}
}

func TestFacadeSearches(t *testing.T) {
	ctx := context.Background()
	s := arena.MustNew(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4))
	g := arena.MustBuildModel("MoE-1.3B")
	full, err := s.FullSearch(ctx, g, "A40", 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible() {
		t.Fatal("full search found nothing")
	}
	gp, err := s.Plan(ctx, arena.Grid{
		Workload: arena.Workload{Model: "MoE-1.3B", GlobalBatch: 256},
		GPUType:  "A40", N: 4, S: len(full.Plan.Stages),
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := s.PrunedSearch(ctx, g, "A40", 256, 4, gp)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Result.Throughput < 0.85*full.Result.Throughput {
		t.Errorf("pruned quality too low: %v vs %v", pruned.Result.Throughput, full.Result.Throughput)
	}
}

func TestFacadeSimulation(t *testing.T) {
	spec := arena.ClusterA()
	w := arena.Workload{Model: "WRes-1B", GlobalBatch: 256}
	jobs, err := arena.GenerateTrace(arena.TraceConfig{
		Kind: "philly", Duration: 3600, NumJobs: 12, Seed: 3,
		GPUTypes: spec.GPUTypes(), MaxGPUs: 8,
		Workloads: []arena.Workload{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := arena.MustNew(arena.WithSeed(42), arena.WithCluster(spec), arena.WithMaxN(8), arena.WithWorkloads(w))
	res, err := s.Simulate(context.Background(), arena.SimConfig{
		Policy: arena.NewArenaPolicy(), Source: arena.SliceTraceSource(jobs),
		RoundSeconds: 300, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 12 {
		t.Errorf("finished %d/12", res.Finished)
	}
}

func TestObjectiveConstants(t *testing.T) {
	p := arena.NewArenaPolicy()
	p.Objective = arena.ObjFairness
	if p.Name() != "arena-fair" {
		t.Errorf("name = %s", p.Name())
	}
}

// TestSessionMatchesFreeFunctions asserts the Session's bit-identity
// contract: every Session method returns exactly what the pipeline
// packages' free functions return for the same inputs on a fresh engine.
func TestSessionMatchesFreeFunctions(t *testing.T) {
	ctx := context.Background()
	s, err := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4))
	if err != nil {
		t.Fatal(err)
	}
	g := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}

	// Full search: session (shared cache, parallel) vs a serial search on
	// a fresh cache.
	eng := arena.NewEngine(42)
	serial, err := search.FullSearchCtx(ctx, eng, g, spec, 128, 4, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := s.FullSearch(ctx, g, "A40", 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, viaSession) {
		t.Errorf("session full search diverged from free function\nfree:    %+v plan %v\nsession: %+v plan %v",
			serial.Result, serial.Plan, viaSession.Result, viaSession.Plan)
	}

	// Plan + Evaluate.
	grid := arena.Grid{Workload: w, GPUType: "A40", N: 4, S: 2}
	gpFree, err := arena.NewPlanner().PlanGrid(g, grid)
	if err != nil {
		t.Fatal(err)
	}
	gpSess, err := s.Plan(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gpFree.Proxy.Plan, gpSess.Proxy.Plan) {
		t.Errorf("session plan diverged: %v vs %v", gpFree.Proxy.Plan, gpSess.Proxy.Plan)
	}
	resFree, err := eng.Evaluate(g, gpFree.Proxy.Plan, spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	resSess, err := s.Evaluate(ctx, g, gpSess.Proxy.Plan, "A40", 128)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resFree, resSess) {
		t.Errorf("session evaluate diverged: %+v vs %+v", resFree, resSess)
	}

	// ProfileJob: same grids, same estimates, same profiling bill.
	ct, err := profiler.OfflineSampleComm(eng, []string{"A40"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	jpFree, err := profiler.ProfileJobCtx(context.Background(), arena.NewPlanner(), arena.NewProfiler(eng, ct), g, w, []string{"A40"}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	jpSess, err := s.ProfileJob(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if jpFree.TotalProfileGPUTime != jpSess.TotalProfileGPUTime {
		t.Errorf("profiling bill diverged: %v vs %v", jpFree.TotalProfileGPUTime, jpSess.TotalProfileGPUTime)
	}
	if !reflect.DeepEqual(jpFree.Estimates, jpSess.Estimates) {
		t.Error("profile estimates diverged")
	}
}

// TestSessionBuildPerfDBOwnCaches builds a fresh session's database. The
// build measures through per-model caches of its own, so the session's
// EvalCache is left untouched, and the entries and profiling wall times
// are the ones perfdb.BuildCtx builds.
func TestSessionBuildPerfDBOwnCaches(t *testing.T) {
	ctx := context.Background()
	ws := []arena.Workload{{Model: "GPT-1.3B", GlobalBatch: 128}, {Model: "WRes-1B", GlobalBatch: 256}}
	s, err := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4), arena.WithWorkloads(ws...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.EvalCache().Stats(); st != (arena.EvalCacheStats{}) {
		t.Errorf("the build measured through the session's cache: %+v", st)
	}
	want, err := perfdb.BuildCtx(ctx, arena.NewEngine(42), perfdb.Options{GPUTypes: []string{"A40"}, MaxN: 4, Workloads: ws})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Keys(), want.Keys()) {
		t.Fatalf("keys %v, BuildCtx builds %v", got.Keys(), want.Keys())
	}
	for _, k := range want.Keys() {
		a, _ := got.Entry(k.Workload, k.GPUType, k.N)
		b, _ := want.Entry(k.Workload, k.GPUType, k.N)
		if *a != *b {
			t.Errorf("entry %+v: session %+v, BuildCtx %+v", k, *a, *b)
		}
	}
	for _, w := range ws {
		if got.ArenaProfileWall(w) != want.ArenaProfileWall(w) || got.DPProfileWall(w) != want.DPProfileWall(w) || got.SiaProfileWall(w) != want.SiaProfileWall(w) {
			t.Errorf("%v: profiling wall times differ from BuildCtx's", w)
		}
	}
}

// TestSessionSimulateMatchesFreeSimulate covers the database + simulator
// half of the bit-identity contract.
func TestSessionSimulateMatchesFreeSimulate(t *testing.T) {
	ctx := context.Background()
	spec := arena.ClusterA()
	w := arena.Workload{Model: "WRes-1B", GlobalBatch: 256}
	jobs, err := arena.GenerateTrace(arena.TraceConfig{
		Kind: "philly", Duration: 3600, NumJobs: 12, Seed: 3,
		GPUTypes: spec.GPUTypes(), MaxGPUs: 8,
		Workloads: []arena.Workload{w},
	})
	if err != nil {
		t.Fatal(err)
	}

	dbFree, err := perfdb.BuildCtx(context.Background(), arena.NewEngine(42), perfdb.Options{
		GPUTypes: spec.GPUTypes(), MaxN: 8, Workloads: []arena.Workload{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := sim.RunCtx(context.Background(), sim.Config{
		Spec: spec, Policy: arena.NewArenaPolicy(), Source: trace.SliceSource(jobs), DB: dbFree,
		RoundSeconds: 300, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, err := arena.New(
		arena.WithSeed(42), arena.WithCluster(spec), arena.WithMaxN(8),
		arena.WithWorkloads(w),
	)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := s.Simulate(ctx, arena.SimConfig{
		Policy: arena.NewArenaPolicy(), Source: arena.SliceTraceSource(jobs),
		RoundSeconds: 300, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(free.Summary, viaSession.Summary) {
		t.Errorf("session simulation diverged from free function\nfree:    %+v\nsession: %+v",
			free.Summary, viaSession.Summary)
	}

	// The session memoizes its database: a second call must return the
	// same instance.
	db1, err := s.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := s.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if db1 != db2 {
		t.Error("session rebuilt its performance database")
	}
}

// TestSessionCancellation: cancelled contexts abort the session's
// long-running methods with ctx.Err().
func TestSessionCancellation(t *testing.T) {
	w := arena.Workload{Model: "WRes-1B", GlobalBatch: 256}
	s, err := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4),
		arena.WithWorkloads(w))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BuildPerfDB(ctx); err != context.Canceled {
		t.Errorf("BuildPerfDB: err = %v, want context.Canceled", err)
	}
	if _, err := s.Search(ctx, w, "A40", 4); err != context.Canceled {
		t.Errorf("Search: err = %v, want context.Canceled", err)
	}
	g := arena.MustBuildModel("WRes-1B")
	if _, err := s.FullSearch(ctx, g, "A40", 256, 4); err != context.Canceled {
		t.Errorf("FullSearch: err = %v, want context.Canceled", err)
	}
	if _, err := s.Simulate(ctx, arena.SimConfig{Policy: arena.NewArenaPolicy()}); err != context.Canceled {
		t.Errorf("Simulate: err = %v, want context.Canceled", err)
	}
	// The session is still fully usable after cancelled calls.
	out, err := s.Search(context.Background(), w, "A40", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible() {
		t.Error("post-cancel search found no feasible plan")
	}
}

func TestSessionSearchRejectsOutOfScopeResource(t *testing.T) {
	s, err := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4))
	if err != nil {
		t.Fatal(err)
	}
	w := arena.Workload{Model: "WRes-1B", GlobalBatch: 256}
	if _, err := s.Search(context.Background(), w, "A100", 4); err == nil {
		t.Error("want error for GPU type outside the session's scope")
	}
	if _, err := s.Search(context.Background(), w, "A40", 32); err == nil {
		t.Error("want error for n beyond the sampled communicator bound")
	}
}

func TestSessionRejectsBadOptions(t *testing.T) {
	if _, err := arena.New(arena.WithGPUTypes("NoSuchGPU")); err == nil {
		t.Error("want error for unknown GPU type")
	}
	if _, err := arena.New(arena.WithMaxN(0)); err == nil {
		t.Error("want error for MaxN 0")
	}
}

// ExampleNew shows the execution-free planner through a Session.
func ExampleNew() {
	s, _ := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"))
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	gp, _ := s.Plan(context.Background(), arena.Grid{Workload: w, GPUType: "A40", N: 4, S: 2})
	fmt.Println(gp.Proxy.Plan)
	// Output: PP2[DP2,DP2]
}

// ExampleSession_Search runs the whole deployment pipeline — plan every
// grid, profile the proxies, pruned-search the best grid — in one call.
func ExampleSession_Search() {
	s := arena.MustNew(arena.WithSeed(42), arena.WithGPUTypes("A40"), arena.WithMaxN(4))
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	out, _ := s.Search(context.Background(), w, "A40", 4)
	fmt.Println(out.Plan)
	// Output: PP2[DP2,DP2]
}
