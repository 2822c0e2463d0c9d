package schedtest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/sim"
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
				{Model: "GPT-1.3B", GlobalBatch: 128},
				{Model: "GPT-2.6B", GlobalBatch: 128},
			},
		})
	})
	if bErr != nil {
		t.Fatal(bErr)
	}
	return testDB
}

func seededJobs(t *testing.T, seed uint64, n int) []trace.Job {
	t.Helper()
	jobs, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: 3 * 3600, NumJobs: n, Seed: seed,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// checkedRun simulates jobs under the wrapped policy; Wrap fails the
// test at the first round whose assignment breaks an invariant.
func checkedRun(t *testing.T, p sched.Policy, jobs []trace.Job, opts Options, fc *faults.Config) {
	t.Helper()
	_, err := sim.RunCtx(context.Background(), sim.Config{
		Spec: hw.ClusterA(), Policy: Wrap(t, p, opts), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 200, IncludeUnfinished: true, Seed: 1,
		Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPolicyInvariantsProperty(t *testing.T) {
	// Randomized property test: seeded trace realizations, all five
	// policies, 200 rounds each, every round's assignment checked against
	// the full invariant set. A 70-job backlog on ClusterA keeps the
	// queue several times deeper than capacity, so admission failure,
	// victim shrinking, growth and memo paths all run constantly.
	mks := map[string]func() sched.Policy{
		"fcfs":        func() sched.Policy { return policy.NewFCFS() },
		"gavel":       func() sched.Policy { return policy.NewGavel() },
		"elasticflow": func() sched.Policy { return policy.NewElasticFlow() },
		"sia":         func() sched.Policy { return policy.NewSia() },
		"arena":       func() sched.Policy { return sched.NewArena() },
	}
	for _, seed := range []uint64{7, 21, 1009} {
		for name, mk := range mks {
			name, mk, seed := name, mk, seed
			t.Run(name, func(t *testing.T) {
				checkedRun(t, mk(), seededJobs(t, seed, 70), Options{}, nil)
			})
		}
	}
}

func TestRigidArenaPlacesProfiledPow2(t *testing.T) {
	// Rigid mode (DisableElastic) pins each job to one snapped count; the
	// checker additionally requires every placement to be a profiled
	// power of two the policy's own perceived table knows about.
	p := sched.NewArena()
	p.DisableElastic = true
	opts := Options{
		RequirePow2: true,
		Profiled: func(w model.Workload, gpuType string, n int) bool {
			return p.PerceivedThr(db(t), w, gpuType, n) > 0
		},
	}
	checkedRun(t, p, seededJobs(t, 7, 50), opts, nil)
}

func TestArenaMigratesOntoHealthyCapacity(t *testing.T) {
	// Straggler injection drives arena's routeStragglers: every proposed
	// Migrate must target a running job with a fully healthy destination
	// for its exact shape (the engine re-allocates the same alloc).
	fc := &faults.Config{
		Model: &faults.Model{Default: faults.TypeFaults{
			SlowEvery: 2 * 3600, SlowDuration: 3600,
		}},
		CheckpointInterval: 900,
	}
	checkedRun(t, sched.NewArena(), seededJobs(t, 21, 50), Options{}, fc)
}

func TestCheckFlagsViolations(t *testing.T) {
	// The checker itself must reject hand-built bad assignments — a
	// checker that passes everything proves nothing — and say which
	// invariant each breaks.
	jobs := seededJobs(t, 7, 4)
	// A minimal synthetic context suffices: the invariants only read
	// Queued/Running/Cluster.
	cl := mustCluster(t)
	q := &sched.Job{Trace: jobs[0], State: sched.StateQueued}
	// twin is a second queued job carrying q's ID: the round is legal,
	// naming both in one assignment is not.
	twin := &sched.Job{Trace: jobs[1], State: sched.StateQueued}
	twin.Trace.ID = q.Trace.ID
	ctx := &sched.Context{Now: 0, Queued: []*sched.Job{q, twin}, Cluster: cl, DB: db(t)}
	// impostor is a copy of q: same ID and fields, another pointer.
	impostor := *q
	stranger := &sched.Job{Trace: jobs[2], State: sched.StateQueued}
	a40 := sched.Alloc{GPUType: "A40", N: 2}
	id := q.Trace.ID

	cases := map[string]struct {
		asg  sched.Assignment
		want string
	}{
		"stranger":   {sched.Assignment{Place: map[*sched.Job]sched.Alloc{stranger: a40}}, fmt.Sprintf("Place[%s]: not a job of the round", stranger.Trace.ID)},
		"impostor":   {sched.Assignment{Place: map[*sched.Job]sched.Alloc{&impostor: a40}}, fmt.Sprintf("Place[%s]: not a job of the round", id)},
		"shared ID":  {sched.Assignment{Place: map[*sched.Job]sched.Alloc{q: a40, twin: a40}}, "two distinct jobs named " + id},
		"drop twins": {sched.Assignment{Drop: []*sched.Job{q, twin}}, "two distinct jobs named " + id},
		"over-commit": {sched.Assignment{Place: map[*sched.Job]sched.Alloc{
			q: {GPUType: "A40", N: cl.FreeGPUs("A40") + 1},
		}}, "type A40 over-committed"},
		"unknown type":   {sched.Assignment{Place: map[*sched.Job]sched.Alloc{q: {GPUType: "H100", N: 1}}}, "unknown GPU type"},
		"zero on queued": {sched.Assignment{Place: map[*sched.Job]sched.Alloc{q: {}}}, "zero Alloc for a queued job"},
		"place+drop": {sched.Assignment{
			Place: map[*sched.Job]sched.Alloc{q: {GPUType: "A40", N: 1}},
			Drop:  []*sched.Job{q},
		}, id + " both placed and dropped"},
		"drop twice":       {sched.Assignment{Drop: []*sched.Job{q, q}}, "Drop: " + id + " listed twice"},
		"drop impostor":    {sched.Assignment{Drop: []*sched.Job{&impostor}}, "Drop: " + id + " is not a job of the round"},
		"migrate queued":   {sched.Assignment{Migrate: []*sched.Job{q}}, "Migrate: " + id + " is not running"},
		"migrate stranger": {sched.Assignment{Migrate: []*sched.Job{stranger}}, "Migrate: " + stranger.Trace.ID + " is not a job of the round"},
	}
	for name, c := range cases {
		asg := c.asg
		if asg.Place == nil {
			asg.Place = map[*sched.Job]sched.Alloc{}
		}
		if err := Check(ctx, asg, Options{}); err == nil {
			t.Errorf("%s: accepted, want violation %q", name, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want violation %q", name, err, c.want)
		}
	}
	if err := Check(ctx, sched.NewAssignment(), Options{}); err != nil {
		t.Errorf("empty assignment rejected: %v", err)
	}
	split := sched.Assignment{Place: map[*sched.Job]sched.Alloc{q: a40}, Drop: []*sched.Job{twin}}
	if err := Check(ctx, split, Options{}); err == nil || !strings.Contains(err.Error(), "two distinct jobs") {
		t.Errorf("a placed and a dropped job sharing an ID: %v, want the shared ID reported", err)
	}
	pow2 := sched.Assignment{Place: map[*sched.Job]sched.Alloc{q: {GPUType: "A40", N: 3}}}
	if err := Check(ctx, pow2, Options{RequirePow2: true}); err == nil {
		t.Error("non-power-of-two placement accepted under RequirePow2")
	}
}

func TestCheckReportsViolationsInSortedIDOrder(t *testing.T) {
	// Check's error joins one message per violation; Place is a map, so
	// without the sorted iteration the placement section of the report
	// would come out in map-range order — different every call. Eight
	// jobs outside the round make an accidentally-sorted order vanishingly
	// likely (1/8! per call), so this fails against an unsorted loop.
	cl := mustCluster(t)
	ctx := &sched.Context{Now: 0, Cluster: cl}
	asg := sched.Assignment{Place: map[*sched.Job]sched.Alloc{}}
	suffixes := []string{"g", "c", "a", "e", "h", "b", "f", "d"}
	for _, s := range suffixes {
		asg.Place[&sched.Job{Trace: trace.Job{ID: "ghost-" + s}}] = sched.Alloc{GPUType: "A40", N: 1}
	}

	var want []string
	for _, s := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		want = append(want, fmt.Sprintf("Place[ghost-%s]: not a job of the round", s))
	}
	wantErr := "schedtest: " + strings.Join(want, "; ")
	for i := 0; i < 5; i++ {
		err := Check(ctx, asg, Options{})
		if err == nil {
			t.Fatal("placements outside the round accepted")
		}
		if got := err.Error(); got != wantErr {
			t.Fatalf("call %d: violations not in sorted id order:\n got: %s\nwant: %s", i, got, wantErr)
		}
	}
}

func mustCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(hw.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}
