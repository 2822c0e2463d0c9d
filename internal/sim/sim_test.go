package sim

import (
	"reflect"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
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
		testDB, bErr = perfdb.Build(exec.NewEngine(42), perfdb.Options{
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

func testJobs(t *testing.T, n int) []trace.Job {
	t.Helper()
	cfg := trace.Config{
		Kind: trace.Philly, Duration: 3 * 3600, NumJobs: n, Seed: 7,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		},
	}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func runSim(t *testing.T, p sched.Policy, jobs []trace.Job) *Result {
	t.Helper()
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: p, Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimCompletesAllJobs(t *testing.T) {
	for _, p := range []sched.Policy{
		policy.NewFCFS(), policy.NewGavel(), policy.NewElasticFlow(),
		policy.NewSia(), sched.NewArena(),
	} {
		res := runSim(t, p, testJobs(t, 40))
		if res.Finished != 40 {
			t.Errorf("%s finished %d/40 jobs", p.Name(), res.Finished)
		}
		if res.Total != 40 {
			t.Errorf("%s total = %d", p.Name(), res.Total)
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	// Every policy, full-summary comparison. The elastic policies once
	// broke marginal-gain ties by Go map iteration order — caught only
	// because this test compares complete summaries across all five.
	jobs := testJobs(t, 30)
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return policy.NewFCFS() },
		func() sched.Policy { return policy.NewGavel() },
		func() sched.Policy { return policy.NewElasticFlow() },
		func() sched.Policy { return policy.NewSia() },
		func() sched.Policy { return sched.NewArena() },
	} {
		a := runSim(t, mk(), jobs)
		b := runSim(t, mk(), jobs)
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("%s: simulation is not deterministic", a.Policy)
		}
	}
}

func TestSimJCTIncludesQueueing(t *testing.T) {
	res := runSim(t, sched.NewArena(), testJobs(t, 30))
	for i, jct := range res.JCTs {
		if jct <= 0 {
			t.Errorf("JCT[%d] = %v", i, jct)
		}
	}
	if len(res.QueueTimes) == 0 {
		t.Fatal("no queue times recorded")
	}
	for _, q := range res.QueueTimes {
		if q < 0 {
			t.Errorf("negative queue time %v", q)
		}
	}
}

func TestSimThroughputBounded(t *testing.T) {
	// Cluster throughput can never exceed the sum of every job's possible
	// max; sanity: it must stay finite and non-negative.
	res := runSim(t, policy.NewSia(), testJobs(t, 40))
	for i, thr := range res.ThroughputSeries {
		if thr < 0 {
			t.Errorf("round %d: negative throughput", i)
		}
	}
	if res.PeakThr <= 0 {
		t.Error("no throughput recorded at all")
	}
}

func TestSimWorkConservation(t *testing.T) {
	// Every finished job must have processed exactly its trace work:
	// RemainingSamples reaches 0.
	res := runSim(t, sched.NewArena(), testJobs(t, 30))
	for _, j := range res.Jobs {
		if j.State == sched.StateFinished && j.RemainingSamples > 1e-6 {
			t.Errorf("job %s finished with %.1f samples left", j.Trace.ID, j.RemainingSamples)
		}
	}
}

func TestSimArenaBeatsFCFS(t *testing.T) {
	jobs := testJobs(t, 60)
	fcfs := runSim(t, policy.NewFCFS(), jobs)
	arena := runSim(t, sched.NewArena(), jobs)
	if arena.AvgJCT >= fcfs.AvgJCT {
		t.Errorf("Arena JCT %v should beat FCFS %v", arena.AvgJCT, fcfs.AvgJCT)
	}
	if arena.AvgQueue >= fcfs.AvgQueue {
		t.Errorf("Arena queueing %v should beat FCFS %v", arena.AvgQueue, fcfs.AvgQueue)
	}
}

func TestSimProfilePrependDelaysSubmission(t *testing.T) {
	// Baselines with heavy ahead-of-time profiling see delayed effective
	// submissions: a single job's queue time under Gavel includes the DP
	// profiling prepend relative to FCFS (which profiles nothing).
	jobs := testJobs(t, 1)
	fcfs := runSim(t, policy.NewFCFS(), jobs)
	gavel := runSim(t, policy.NewGavel(), jobs)
	if gavel.QueueTimes[0] <= fcfs.QueueTimes[0] {
		t.Errorf("Gavel queue %v should exceed FCFS %v (profiling prepend)",
			gavel.QueueTimes[0], fcfs.QueueTimes[0])
	}
}

func TestSimRescalePaysOverhead(t *testing.T) {
	// Arena reschedules some jobs; each rescale must be visible in the
	// per-job counters.
	res := runSim(t, sched.NewArena(), testJobs(t, 60))
	var anyRescheduled bool
	for _, j := range res.Jobs {
		if j.Resched > 0 {
			anyRescheduled = true
		}
	}
	if !anyRescheduled {
		t.Skip("no rescheduling occurred under this trace (acceptable)")
	}
	if res.AvgReschedules <= 0 {
		t.Error("rescheduling happened but the average is zero")
	}
}

func TestSimDeadlineAccounting(t *testing.T) {
	cfg := trace.Config{
		Kind: trace.Philly, Duration: 2 * 3600, NumJobs: 30, Seed: 11,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		DeadlineFraction: 1.0,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
		},
	}
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewArena()
	p.Objective = sched.ObjDeadline
	res := runSim(t, p, jobs)
	if res.DeadlineTotal == 0 {
		t.Fatal("no deadline jobs accounted")
	}
	if res.DeadlineSatisfied > res.DeadlineTotal {
		t.Fatal("satisfied exceeds total")
	}
}

func TestSimValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing policy/db should error")
	}
}

func TestSimMaxRoundsBound(t *testing.T) {
	jobs := testJobs(t, 40)
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 4, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon > 5*300 {
		t.Errorf("horizon %v exceeds the round bound", res.Horizon)
	}
	// Censored JCTs must cover every job submitted before the horizon.
	submitted := 0
	for _, j := range jobs {
		if j.SubmitTime <= res.Horizon {
			submitted++
		}
	}
	if len(res.JCTs) != submitted {
		t.Errorf("expected %d (censored) JCTs, got %d", submitted, len(res.JCTs))
	}
	for _, jct := range res.JCTs {
		if jct < 0 {
			t.Errorf("negative censored JCT %v", jct)
		}
	}
}

func TestSimRigidNonPow2TraceFinishes(t *testing.T) {
	// Regression for rigid-mode starvation: with elasticity disabled, a
	// hand-written trace requesting 3 GPUs (production traces are
	// power-of-two, user-written ones need not be) used to probe 3→6→12
	// off the profiled grid and queue forever — the simulation ran out
	// its entire drain horizon with the job still queued, silently
	// diverging the w/o-elastic ablation. The request must snap to the
	// next profiled size and finish.
	p := sched.NewArena()
	p.DisableElastic = true
	jobs := []trace.Job{{
		ID:         "rigid-3",
		Workload:   model.Workload{Model: "WRes-1B", GlobalBatch: 256},
		Iterations: 50, ReqGPUs: 3, ReqType: "A40", Priority: 1,
	}}
	res := runSim(t, p, jobs)
	if res.Finished != 1 {
		t.Fatalf("rigid 3-GPU job starved: finished=%d dropped=%d", res.Finished, res.Dropped)
	}
	if res.Jobs[0].Alloc.N != 4 {
		t.Errorf("job ran at %d GPUs, want the snapped profiled size 4", res.Jobs[0].Alloc.N)
	}
}

// arenaVariants enumerates every ablation and objective variant of the
// Arena policy (the Fig. 17 matrix plus the §5.6/§5.5 objectives).
func arenaVariants() map[string]func() *sched.ArenaPolicy {
	mk := func(mod func(*sched.ArenaPolicy)) func() *sched.ArenaPolicy {
		return func() *sched.ArenaPolicy {
			p := sched.NewArena()
			mod(p)
			return p
		}
	}
	return map[string]func() *sched.ArenaPolicy{
		"arena":        mk(func(p *sched.ArenaPolicy) {}),
		"w/o-planner":  mk(func(p *sched.ArenaPolicy) { p.DisablePlanner = true }),
		"w/o-profiler": mk(func(p *sched.ArenaPolicy) { p.DisableProfiler = true }),
		"w/o-elastic":  mk(func(p *sched.ArenaPolicy) { p.DisableElastic = true }),
		"w/o-hetero":   mk(func(p *sched.ArenaPolicy) { p.DisableHetero = true }),
		"w/o-pruning":  mk(func(p *sched.ArenaPolicy) { p.DisablePruning = true }),
		"ddl":          mk(func(p *sched.ArenaPolicy) { p.Objective = sched.ObjDeadline }),
		"fair":         mk(func(p *sched.ArenaPolicy) { p.Objective = sched.ObjFairness }),
	}
}

// jobOutcome is the per-job end state the determinism matrix compares.
type jobOutcome struct {
	State      sched.JobState
	FinishedAt float64
	LaunchedAt float64
	Alloc      sched.Alloc
	Resched    int
	Remaining  float64
}

func outcomes(res *Result) map[string]jobOutcome {
	out := map[string]jobOutcome{}
	for _, j := range res.Jobs {
		out[j.Trace.ID] = jobOutcome{
			State: j.State, FinishedAt: j.FinishedAt, LaunchedAt: j.LaunchedAt,
			Alloc: j.Alloc, Resched: j.Resched, Remaining: j.RemainingSamples,
		}
	}
	return out
}

func TestSimAblationMatrixDeterministic(t *testing.T) {
	// Every Disable* / objective variant must simulate bit-identically
	// across two runs — the §5.7 ablation comparisons are meaningless if
	// any variant's trajectory depends on map order or leftover state.
	jobs := testJobs(t, 30)
	for name, mk := range arenaVariants() {
		a := runSim(t, mk(), jobs)
		b := runSim(t, mk(), jobs)
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("%s: summaries differ between identical runs", name)
		}
		if !reflect.DeepEqual(outcomes(a), outcomes(b)) {
			t.Errorf("%s: per-job outcomes differ between identical runs", name)
		}
	}
}

func TestSimTotalRespectsHorizon(t *testing.T) {
	// Regression: Total once counted every trace job, including pending
	// jobs whose submission lies beyond a MaxRounds-capped horizon —
	// jobs the simulation never saw.
	jobs := testJobs(t, 40)
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 4, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, j := range jobs {
		if j.SubmitTime <= res.Horizon {
			want++
		}
	}
	if want >= len(jobs) {
		t.Fatalf("fixture broken: all %d jobs inside the %vs horizon", len(jobs), res.Horizon)
	}
	if res.Total != want {
		t.Errorf("Total = %d, want the %d jobs submitted within the horizon", res.Total, want)
	}
}

func TestSimFidelityNoiseChangesResults(t *testing.T) {
	jobs := testJobs(t, 30)
	clean := runSim(t, sched.NewArena(), jobs)
	noisy, err := Run(Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, ThroughputNoise: 0.05, IncludeUnfinished: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.AvgJCT == noisy.AvgJCT {
		t.Error("throughput noise should perturb results")
	}
	// ... but only slightly (§5.2's fidelity claim).
	rel := (clean.AvgJCT - noisy.AvgJCT) / noisy.AvgJCT
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("noise shifted JCT by %.1f%%, too much", 100*rel)
	}
}
