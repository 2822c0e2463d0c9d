package policy

import (
	"context"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var (
	once   sync.Once
	testDB *perfdb.DB
	bErr   error
)

func db(t *testing.T) *perfdb.DB {
	t.Helper()
	once.Do(func() {
		testDB, bErr = perfdb.BuildCtx(context.Background(), exec.NewEngine(42), perfdb.Options{
			GPUTypes: []string{"A40", "A10"},
			MaxN:     16,
			Workloads: []model.Workload{
				{Model: "WRes-1B", GlobalBatch: 256},
				{Model: "GPT-2.6B", GlobalBatch: 128},
				{Model: "GPT-6.7B", GlobalBatch: 128},
			},
		})
	})
	if bErr != nil {
		t.Fatal(bErr)
	}
	return testDB
}

func ctx(t *testing.T, queued, running []*sched.Job) *sched.Context {
	t.Helper()
	cl, err := cluster.New(hw.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range running {
		j.State = sched.StateRunning
		if _, err := cl.Alloc(nil, j.Alloc.GPUType, j.Alloc.N); err != nil {
			t.Fatal(err)
		}
	}
	return &sched.Context{
		Now: 0, Queued: queued, Running: running,
		Cluster: cl, DB: db(t),
	}
}

func job(id, m string, gb, req, prio int) *sched.Job {
	return &sched.Job{
		Trace: trace.Job{
			ID: id, Workload: model.Workload{Model: m, GlobalBatch: gb},
			Iterations: 200, ReqGPUs: req, ReqType: "A40", Priority: prio,
		},
		State: sched.StateQueued, LaunchedAt: -1,
		RemainingSamples: 200 * float64(gb),
	}
}

// placedByID is an assignment's placements keyed by the placed jobs' IDs.
func placedByID(place map[*sched.Job]sched.Alloc) map[string]sched.Alloc {
	out := make(map[string]sched.Alloc, len(place))
	for j, a := range place {
		out[j.Trace.ID] = a
	}
	return out
}

func TestFCFSHonoursRequests(t *testing.T) {
	p := NewFCFS()
	j := job("j1", "WRes-1B", 256, 4, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok || alloc.N != 4 || alloc.GPUType != "A40" {
		t.Fatalf("FCFS should honour the 4xA40 request: %v", alloc)
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	p := NewFCFS()
	big := job("big", "WRes-1B", 256, 16, 1)
	small := job("small", "WRes-1B", 256, 1, 1)
	c := ctx(t, []*sched.Job{big, small}, nil)
	// Leave only 8 A40s free: the 16-GPU head blocks the 1-GPU follower.
	if _, err := c.Cluster.Alloc(nil, "A40", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cluster.Alloc(nil, "A40", 8); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(c)
	if len(asg.Place) != 0 {
		t.Fatalf("FCFS must block behind the infeasible head: %v", placedByID(asg.Place))
	}
}

func TestFCFSRaisesInfeasibleRequests(t *testing.T) {
	// A user cannot actually run GPT-6.7B on 1 GPU; FCFS sizes the request
	// up to the execution floor.
	p := NewFCFS()
	j := job("j1", "GPT-6.7B", 128, 1, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok {
		t.Fatal("job not placed")
	}
	if db(t).APThr(j.Workload(), alloc.GPUType, alloc.N) <= 0 {
		t.Fatalf("placed on an infeasible allocation %v", alloc)
	}
}

func TestGavelPicksBestType(t *testing.T) {
	p := NewGavel()
	j := job("j1", "WRes-1B", 256, 2, 1)
	j.Trace.ReqType = "A10"
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok {
		t.Fatal("job not placed")
	}
	d := db(t)
	// Gavel must pick the type its DP view prefers at n=2.
	wantA40 := d.DPThr(j.Workload(), "A40", 2) > d.DPThr(j.Workload(), "A10", 2)
	if wantA40 && alloc.GPUType != "A40" {
		t.Errorf("Gavel should switch to A40, got %v", alloc)
	}
}

func TestGavelKeepsCount(t *testing.T) {
	// Gavel has no elasticity: the placed GPU count equals the demand
	// (request raised to the feasibility floor), never scaled beyond.
	p := NewGavel()
	j := job("j1", "WRes-1B", 256, 4, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	if alloc := placedByID(asg.Place)["j1"]; alloc.N != 4 {
		t.Errorf("Gavel changed the GPU count: %v", alloc)
	}
}

func TestElasticFlowAdmitsAtMinThenGrows(t *testing.T) {
	p := NewElasticFlow()
	j := job("j1", "WRes-1B", 256, 8, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok {
		t.Fatal("job not admitted")
	}
	if alloc.GPUType != "A40" {
		t.Errorf("ElasticFlow is homogeneous: job must stay on its region, got %v", alloc)
	}
	if alloc.N < 1 {
		t.Errorf("bad allocation %v", alloc)
	}
}

func TestElasticFlowShrinksToAdmit(t *testing.T) {
	p := NewElasticFlow()
	run := job("incumbent", "WRes-1B", 256, 16, 1)
	run.Alloc = sched.Alloc{GPUType: "A40", N: 16}
	newcomer := job("new", "WRes-1B", 256, 2, 1)
	c := ctx(t, []*sched.Job{newcomer}, []*sched.Job{run})
	if _, err := c.Cluster.Alloc(nil, "A40", 16); err != nil {
		t.Fatal(err)
	}
	asg := p.Assign(c)
	if _, ok := placedByID(asg.Place)["new"]; !ok {
		t.Fatal("newcomer not admitted")
	}
	if down, ok := placedByID(asg.Place)["incumbent"]; !ok || down.N >= 16 {
		t.Fatalf("incumbent not shrunk: %v", down)
	}
}

func TestSiaAdmitsDensely(t *testing.T) {
	p := NewSia()
	j := job("j1", "WRes-1B", 256, 8, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok {
		t.Fatal("job not admitted")
	}
	if alloc.N < 1 || db(t).SiaEst(j.Workload(), alloc.GPUType, alloc.N, 1) <= 0 {
		t.Errorf("Sia placed on a perceived-infeasible alloc %v", alloc)
	}
}

func TestSiaRespectsDPFloor(t *testing.T) {
	// GPT-2.6B's DP floor on A40 exceeds its AP floor: Sia must not use
	// the dense AP-only allocation (Case#2 overestimation).
	d := db(t)
	w := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	apMin, dpMin := d.MinFeasibleAP(w, "A40"), d.MinFeasibleDP(w, "A40")
	if apMin == 0 || dpMin == 0 || apMin >= dpMin {
		t.Skip("fixture lacks a floor gap")
	}
	p := NewSia()
	j := job("j1", "GPT-2.6B", 128, 1, 1)
	asg := p.Assign(ctx(t, []*sched.Job{j}, nil))
	alloc, ok := placedByID(asg.Place)["j1"]
	if !ok {
		t.Fatal("job not admitted")
	}
	if alloc.GPUType == "A40" && alloc.N < dpMin {
		t.Errorf("Sia used a below-DP-floor allocation %v", alloc)
	}
}

func TestSiaObservationRefinement(t *testing.T) {
	d := db(t)
	p := NewSia()
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	// ActualThr records the observation; perceived then returns it.
	actual := p.ActualThr(d, w, "A40", 4)
	if actual <= 0 {
		t.Fatal("expected feasible actual throughput")
	}
	if got := p.PerceivedThr(d, w, "A40", 4); got != actual {
		t.Errorf("refined perception %v, want observed %v", got, actual)
	}
}

func TestBaselinesExecuteWithAP(t *testing.T) {
	// §5.1: every baseline's achieved throughput is the AP optimum.
	d := db(t)
	w := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	for _, p := range []sched.Policy{NewFCFS(), NewGavel(), NewElasticFlow(), NewSia()} {
		if got, want := p.ActualThr(d, w, "A40", 8), d.APThr(w, "A40", 8); got != want {
			t.Errorf("%s: actual %v, want AP %v", p.Name(), got, want)
		}
	}
}

func TestBaselineOverheadModels(t *testing.T) {
	d := db(t)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	for _, p := range []sched.Policy{NewGavel(), NewElasticFlow(), NewSia()} {
		if p.ProfilePrepend(d, w) <= 0 {
			t.Errorf("%s: no profiling prepend", p.Name())
		}
		if p.DeployOverhead(d, w, "A40", 8) <= 0 {
			t.Errorf("%s: no deployment overhead", p.Name())
		}
	}
	if NewFCFS().ProfilePrepend(d, w) != 0 {
		t.Error("FCFS should have no profiling prepend")
	}
	// Arena's pruned deployment must undercut the baselines' full search.
	arena := sched.NewArena()
	if arena.DeployOverhead(d, w, "A40", 8) >= NewSia().DeployOverhead(d, w, "A40", 8) {
		t.Error("Arena's deployment overhead should undercut Sia's")
	}
}

func TestPolicyNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []sched.Policy{NewFCFS(), NewGavel(), NewElasticFlow(), NewSia(), sched.NewArena()} {
		if seen[p.Name()] {
			t.Fatalf("duplicate policy name %s", p.Name())
		}
		seen[p.Name()] = true
	}
}
