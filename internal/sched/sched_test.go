package sched

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var (
	dbOnce sync.Once
	testDB *perfdb.DB
	dbErr  error
)

// testWorkloads keeps the fixture DB small but representative: one small
// model (DP-friendly), one memory-bound model (DP OOMs on small parts),
// and one AP-only giant.
func testWorkloads() []model.Workload {
	return []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-2.6B", GlobalBatch: 128},
		{Model: "GPT-6.7B", GlobalBatch: 128},
	}
}

func db(t *testing.T) *perfdb.DB {
	t.Helper()
	dbOnce.Do(func() {
		testDB, dbErr = perfdb.Build(exec.NewEngine(42), perfdb.Options{
			GPUTypes:  []string{"A40", "A10"},
			MaxN:      16,
			Workloads: testWorkloads(),
		})
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func testCtx(t *testing.T, queued, running []*Job) *Context {
	t.Helper()
	cl, err := cluster.New(hw.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range running {
		j.State = StateRunning
		if err := cl.Alloc(j.Trace.ID, j.Alloc.GPUType, j.Alloc.N); err != nil {
			t.Fatal(err)
		}
	}
	return &Context{
		Now:       0,
		Queued:    queued,
		Running:   running,
		Cluster:   cl,
		DB:        db(t),
		MaxPerJob: 16,
	}
}

func mkJob(id, modelName string, gb, reqGPUs, prio int) *Job {
	return &Job{
		Trace: trace.Job{
			ID: id, Workload: model.Workload{Model: modelName, GlobalBatch: gb},
			Iterations: 100, ReqGPUs: reqGPUs, ReqType: "A40", Priority: prio,
		},
		State:            StateQueued,
		LaunchedAt:       -1,
		RemainingSamples: 100 * float64(gb),
		CurPriority:      prio,
	}
}

func TestArenaLaunchesQueuedJobs(t *testing.T) {
	p := NewArena()
	j := mkJob("j1", "WRes-1B", 256, 2, 1)
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	alloc, ok := asg.Place["j1"]
	if !ok || alloc.IsZero() {
		t.Fatal("queued job not launched on an empty cluster")
	}
	if p.PerceivedThr(ctx.DB, j.Workload(), alloc.GPUType, alloc.N) <= 0 {
		t.Fatal("launched on a perceived-infeasible allocation")
	}
}

func TestArenaDenseAllocationForAPOnlyModel(t *testing.T) {
	// GPT-2.6B cannot run DP on A10 and needs ≥4 A40 for DP, but AP runs
	// it on 2×A40: Arena must be willing to use the dense allocation.
	p := NewArena()
	j := mkJob("j1", "GPT-2.6B", 128, 2, 1)
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	alloc, ok := asg.Place["j1"]
	if !ok {
		t.Fatal("job not placed")
	}
	if thr := ctx.DB.ArenaActualThr(j.Workload(), alloc.GPUType, alloc.N); thr <= 0 {
		t.Fatalf("allocation %v is not actually runnable", alloc)
	}
}

func TestArenaGiantModelSchedulable(t *testing.T) {
	// GPT-6.7B fits no GPU type with pure DP; Arena schedules it anyway.
	p := NewArena()
	j := mkJob("j1", "GPT-6.7B", 128, 4, 1)
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	if _, ok := asg.Place["j1"]; !ok {
		t.Fatal("AP-only model not scheduled")
	}
}

func TestArenaPriorityOrder(t *testing.T) {
	// With capacity for only one job, the higher-priority (lower λ) job
	// launches first even if it arrived later.
	p := NewArena()
	lo := mkJob("lo", "WRes-1B", 256, 16, 3)
	hi := mkJob("hi", "WRes-1B", 256, 16, 1)
	lo.SubmittedAt, hi.SubmittedAt = 0, 10
	ctx := testCtx(t, []*Job{lo, hi}, nil)
	// Shrink capacity: occupy most of the cluster.
	if err := ctx.Cluster.Alloc("blocker", "A40", 16); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Cluster.Alloc("blocker2", "A10", 32); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(ctx)
	if _, ok := asg.Place["hi"]; !ok {
		t.Fatal("high-priority job should launch")
	}
}

func TestArenaPriorityPromotion(t *testing.T) {
	p := NewArena()
	j := mkJob("j1", "WRes-1B", 256, 2, 3)
	j.SubmittedAt = 0
	ctx := testCtx(t, []*Job{j}, nil)
	ctx.Now = 5 * 3600 // queued five hours: promoted twice
	p.promote(ctx)
	if j.CurPriority != 1 {
		t.Fatalf("priority = %d after 5h, want 1", j.CurPriority)
	}
}

func TestArenaScaleDownToAdmit(t *testing.T) {
	// A running job holds the whole A40 region; a queued job arrives.
	// Arena must scale the incumbent down to launch the newcomer.
	p := NewArena()
	run := mkJob("big", "WRes-1B", 256, 16, 1)
	run.Alloc = Alloc{GPUType: "A40", N: 16}
	queued := mkJob("new", "WRes-1B", 256, 2, 1)
	ctx := testCtx(t, []*Job{queued}, []*Job{run})
	// Exhaust the rest of the cluster so scale-down is the only path.
	if err := ctx.Cluster.Alloc("filler-a40", "A40", 16); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Cluster.Alloc("filler-a10", "A10", 32); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(ctx)
	if _, ok := asg.Place["new"]; !ok {
		t.Fatal("newcomer not admitted")
	}
	down, ok := asg.Place["big"]
	if !ok || down.N >= 16 {
		t.Fatalf("incumbent not scaled down: %v", down)
	}
}

func TestArenaScaleDownRespectsDepth(t *testing.T) {
	p := NewArena()
	p.D = 0 // no scaling budget
	run := mkJob("big", "WRes-1B", 256, 16, 1)
	run.Alloc = Alloc{GPUType: "A40", N: 16}
	queued := mkJob("new", "WRes-1B", 256, 2, 1)
	ctx := testCtx(t, []*Job{queued}, []*Job{run})
	if err := ctx.Cluster.Alloc("filler-a40", "A40", 16); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Cluster.Alloc("filler-a10", "A10", 32); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(ctx)
	if _, ok := asg.Place["big"]; ok {
		t.Fatal("scale-down happened despite D=0")
	}
}

func TestArenaScaleUpIdleCapacity(t *testing.T) {
	// One long job on 2 GPUs, empty queue, idle cluster: scale it up.
	p := NewArena()
	run := mkJob("solo", "WRes-1B", 256, 2, 1)
	run.Alloc = Alloc{GPUType: "A40", N: 2}
	run.RemainingSamples = 1e9 // long enough to amortize the restart
	ctx := testCtx(t, nil, []*Job{run})
	asg := p.Assign(ctx)
	up, ok := asg.Place["solo"]
	if !ok || up.N <= 2 {
		t.Fatalf("idle capacity not used: %v (ok=%v)", up, ok)
	}
}

func TestArenaNoScaleUpForNearlyDoneJob(t *testing.T) {
	// A job about to finish should not pay a restart for a small gain.
	p := NewArena()
	run := mkJob("done-soon", "WRes-1B", 256, 2, 1)
	run.Alloc = Alloc{GPUType: "A40", N: 2}
	run.RemainingSamples = 10 // finishes within seconds
	ctx := testCtx(t, nil, []*Job{run})
	asg := p.Assign(ctx)
	if _, ok := asg.Place["done-soon"]; ok {
		t.Fatal("nearly-done job should not be rescaled")
	}
}

func TestArenaRevertsWastedScaleDown(t *testing.T) {
	// Regression for the speculative scale-down leak: a queued GPT-6.7B
	// needs ≥ 4 A40 (and ≥ 8 A10), but the only shrinkable victim runs on
	// 4 A40 — halving it twice frees 3 GPUs at most, so the launch can
	// never land. The shrinks are speculative capacity-freeing moves for
	// that launch; when it fails they must be rolled back, not left in
	// asg.Place to rob the victim of half its GPUs for nothing.
	p := NewArena() // D = 3: deep enough to stage both halvings
	victim := mkJob("victim", "WRes-1B", 256, 4, 1)
	victim.Alloc = Alloc{GPUType: "A40", N: 4}
	queued := mkJob("new", "GPT-6.7B", 128, 4, 1)
	ctx := testCtx(t, []*Job{queued}, []*Job{victim})
	// Exhaust everything else so scale-down is the only possible source
	// of capacity (Cluster A: 32×A40 + 32×A10, victim holds 4 A40).
	if err := ctx.Cluster.Alloc("filler-a40", "A40", 28); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Cluster.Alloc("filler-a10", "A10", 32); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(ctx)
	if alloc, ok := asg.Place["new"]; ok {
		t.Fatalf("GPT-6.7B cannot fit in 3 freeable GPUs, yet launched at %v", alloc)
	}
	if down, ok := asg.Place["victim"]; ok {
		t.Fatalf("victim shrunk to %v although the enabling launch never landed", down)
	}
	if len(asg.Place) != 0 {
		t.Fatalf("failed launch must leave no placements, got %v", asg.Place)
	}
}

func TestArenaScaleDownStillLandsWhenLaunchFits(t *testing.T) {
	// The staging must not break the successful path: identical setup but
	// with a victim large enough that one halving frees room — the shrink
	// and the launch must both be in the assignment.
	p := NewArena()
	victim := mkJob("victim", "WRes-1B", 256, 16, 1)
	victim.Alloc = Alloc{GPUType: "A40", N: 16}
	queued := mkJob("new", "GPT-6.7B", 128, 4, 1)
	ctx := testCtx(t, []*Job{queued}, []*Job{victim})
	if err := ctx.Cluster.Alloc("filler-a40", "A40", 16); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Cluster.Alloc("filler-a10", "A10", 32); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(ctx)
	if _, ok := asg.Place["new"]; !ok {
		t.Fatal("launch should land once the victim's halving frees 8 GPUs")
	}
	down, ok := asg.Place["victim"]
	if !ok || down.N >= 16 {
		t.Fatalf("victim shrink must persist with the landed launch, got %v (ok=%v)", down, ok)
	}
}

func TestArenaRigidNonPow2SnapsToProfiledSize(t *testing.T) {
	// Regression for rigid-mode starvation: the database profiles
	// power-of-two grid sizes only, so a rigid 3-GPU request must snap to
	// 4 (the next profiled size) instead of probing 3→6→12 off the grid
	// and queueing forever.
	p := NewArena()
	p.DisableElastic = true
	j := mkJob("j1", "WRes-1B", 256, 3, 1)
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	alloc, ok := asg.Place["j1"]
	if !ok {
		t.Fatal("rigid non-power-of-two job starved on an empty cluster")
	}
	if alloc.N != 4 {
		t.Fatalf("request of 3 must run at the next profiled size 4, got %v", alloc)
	}
}

func TestArenaRigidInfeasibleDropped(t *testing.T) {
	// A rigid request no profiled size can serve (GPT-6.7B needs ≥ 8 A10,
	// capped here at 4 per job) is dropped with a warning rather than
	// left to head-of-line-block its priority queue forever.
	p := NewArena()
	p.DisableElastic = true
	p.DisableHetero = true
	var warnings []string
	p.Warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	j := mkJob("j1", "GPT-6.7B", 128, 3, 1)
	j.Trace.ReqType = "A10"
	ctx := testCtx(t, []*Job{j}, nil)
	ctx.MaxPerJob = 4
	asg := p.Assign(ctx)
	if len(asg.Drop) != 1 || asg.Drop[0] != "j1" {
		t.Fatalf("infeasible rigid job not dropped: %v", asg.Drop)
	}
	if _, ok := asg.Place["j1"]; ok {
		t.Fatal("dropped job must not be placed")
	}
	if len(warnings) != 1 {
		t.Fatalf("expected one drop warning, got %v", warnings)
	}
}

func TestArenaDisableElastic(t *testing.T) {
	p := NewArena()
	p.DisableElastic = true
	j := mkJob("j1", "WRes-1B", 256, 4, 1)
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	alloc, ok := asg.Place["j1"]
	if !ok {
		t.Fatal("job not placed")
	}
	if alloc.N != 4 {
		t.Fatalf("w/o elasticity the request size must be honoured: %v", alloc)
	}
}

func TestArenaDisableHetero(t *testing.T) {
	p := NewArena()
	p.DisableHetero = true
	j := mkJob("j1", "WRes-1B", 256, 2, 1)
	j.Trace.ReqType = "A10"
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	alloc, ok := asg.Place["j1"]
	if !ok {
		t.Fatal("job not placed")
	}
	if alloc.GPUType != "A10" {
		t.Fatalf("w/o heterogeneity the requested type must be honoured: %v", alloc)
	}
}

func TestArenaAblationKnowledge(t *testing.T) {
	d := db(t)
	w := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	std := NewArena()
	noPlanner := NewArena()
	noPlanner.DisablePlanner = true
	// GPT-2.6B at 2×A40: AP feasible, DP not — the w/o-planner view hides
	// the dense allocation (Case#2).
	if std.PerceivedThr(d, w, "A40", 2) <= 0 {
		t.Fatal("Arena should see the dense AP allocation")
	}
	if noPlanner.PerceivedThr(d, w, "A40", 2) != 0 {
		t.Fatal("w/o planner the dense allocation must look infeasible")
	}
	// Deployment overheads: pruning ablation pays the full search.
	noPruning := NewArena()
	noPruning.DisablePruning = true
	if noPruning.DeployOverhead(d, w, "A40", 8) <= std.DeployOverhead(d, w, "A40", 8) {
		t.Fatal("w/o pruning must cost more to deploy")
	}
	// Profiler ablation: longer ahead-of-time pass.
	noProfiler := NewArena()
	noProfiler.DisableProfiler = true
	if noProfiler.ProfilePrepend(d, w) <= std.ProfilePrepend(d, w) {
		t.Fatal("w/o profiler must cost more to profile")
	}
}

func TestArenaDeadlineDropsHopeless(t *testing.T) {
	p := NewArena()
	p.Objective = ObjDeadline
	j := mkJob("j1", "GPT-2.6B", 128, 2, 1)
	j.Trace.Deadline = 1 // impossible
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	if len(asg.Drop) != 1 || asg.Drop[0] != "j1" {
		t.Fatalf("hopeless job not dropped: %v", asg.Drop)
	}
}

func TestArenaDeadlineKeepsFeasible(t *testing.T) {
	p := NewArena()
	p.Objective = ObjDeadline
	j := mkJob("j1", "WRes-1B", 256, 2, 1)
	j.Trace.Deadline = 7 * 24 * 3600
	ctx := testCtx(t, []*Job{j}, nil)
	asg := p.Assign(ctx)
	if len(asg.Drop) != 0 {
		t.Fatal("feasible-deadline job dropped")
	}
	if _, ok := asg.Place["j1"]; !ok {
		t.Fatal("feasible-deadline job not placed")
	}
}

func TestBestFeasibleHelpers(t *testing.T) {
	ctx := testCtx(t, nil, nil)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	thr := func(typ string, n int) float64 { return ctx.DB.APThr(w, typ, n) }
	best, ok := BestFeasible(ctx, thr)
	if !ok || best.IsZero() {
		t.Fatal("no feasible allocation on an empty cluster")
	}
	min, ok := MinFeasible(ctx, thr)
	if !ok || min.N > best.N {
		t.Fatalf("min %v should not exceed best %v", min, best)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewArena().Name() != "arena" {
		t.Error("default name")
	}
	abl := NewArena()
	abl.DisablePruning = true
	if abl.Name() != "arena-w/o-pruning" {
		t.Errorf("ablation name = %s", abl.Name())
	}
	ddl := NewArena()
	ddl.Objective = ObjDeadline
	if ddl.Name() != "arena-ddl" {
		t.Errorf("deadline name = %s", ddl.Name())
	}
}

// TestJobFitsSizeClass keeps Job inside Go's 256-byte allocation size
// class on 64-bit platforms. A deep queue holds thousands of jobs and a
// streamed run allocates one per trace job: a field that pushes Job past
// 256 bytes moves every job into the 288-byte class, about 12% more heap
// per job, so new per-job state belongs in existing padding (as
// ladderHint does, after Restarting) or outside Job.
func TestJobFitsSizeClass(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the size class bound is for 64-bit platforms")
	}
	if size := unsafe.Sizeof(Job{}); size > 256 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d bytes, over the 256-byte size class: every queued and running job would move to the next class", size)
	}
}
