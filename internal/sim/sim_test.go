package sim

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
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
	res, err := RunCtx(context.Background(), Config{
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
	if _, err := RunCtx(context.Background(), Config{}); err == nil {
		t.Fatal("missing policy/db should error")
	}
}

func TestSimMaxRoundsBound(t *testing.T) {
	jobs := testJobs(t, 40)
	res, err := RunCtx(context.Background(), Config{
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
	res, err := RunCtx(context.Background(), Config{
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
	noisy, err := RunCtx(context.Background(), Config{
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

func TestSimSourceWithoutSpanNeedsMaxRounds(t *testing.T) {
	// A bare Source (no Spanner) gives the engine no horizon to derive.
	src := spanlessSource{}
	_, err := RunCtx(context.Background(), Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), Source: src,
	})
	if err == nil {
		t.Fatal("span-less Source without MaxRounds accepted; want error")
	}
	res, err := RunCtx(context.Background(), Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), Source: src,
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 {
		t.Errorf("empty span-less source simulated %d jobs", res.Total)
	}
}

type spanlessSource struct{}

func (spanlessSource) Next() (trace.Job, bool) { return trace.Job{}, false }

func TestStreamingMatchesExact(t *testing.T) {
	// Streaming mode folds terminal jobs into aggregates instead of
	// retaining them: every count must match the exact run, means must
	// agree to float tolerance (the addition order differs only for
	// censored jobs), and the raw slices must stay nil.
	jobs := testJobs(t, 40)
	base := Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
	}
	exact, err := RunCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	sCfg := base
	sCfg.Source, sCfg.Streaming = trace.SliceSource(jobs), true
	stream, err := RunCtx(context.Background(), sCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Jobs != nil || stream.JCTs != nil || stream.QueueTimes != nil {
		t.Errorf("streaming run retained per-job data (Jobs=%d JCTs=%d QueueTimes=%d)",
			len(stream.Jobs), len(stream.JCTs), len(stream.QueueTimes))
	}
	if stream.Total != exact.Total || stream.Finished != exact.Finished ||
		stream.Dropped != exact.Dropped || stream.Failed != exact.Failed ||
		stream.DeadlineSatisfied != exact.DeadlineSatisfied ||
		stream.DeadlineTotal != exact.DeadlineTotal ||
		stream.Preemptions != exact.Preemptions || stream.Restarts != exact.Restarts {
		t.Errorf("streaming counters diverge from exact run:\nexact:  %+v\nstream: %+v",
			exact.Summary, stream.Summary)
	}
	approx := func(name string, a, b float64) {
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Errorf("%s: exact %g vs streaming %g", name, a, b)
		}
	}
	approx("AvgJCT", exact.AvgJCT, stream.AvgJCT)
	approx("AvgQueue", exact.AvgQueue, stream.AvgQueue)
	approx("GoodputGPUHours", exact.GoodputGPUHours, stream.GoodputGPUHours)
	approx("AvgReschedules", exact.AvgReschedules, stream.AvgReschedules)
	// P50/P90 are P² sketch estimates; for a few dozen observations they
	// land near — not on — the exact order statistics.
	if exact.P90JCT > 0 {
		if r := stream.P90JCT / exact.P90JCT; r < 0.5 || r > 2 {
			t.Errorf("P90JCT sketch %g implausibly far from exact %g", stream.P90JCT, exact.P90JCT)
		}
	}
}

func TestRunStopsWhenArrivalsBeyondHorizon(t *testing.T) {
	// Regression for the stop condition: a trace whose remaining
	// arrivals all land beyond the round budget used to keep the loop
	// alive (pending non-empty -> not Done) for the full MaxRounds —
	// hundreds of empty rounds deciding nothing. The loop must now stop
	// as soon as the world is provably idle until past the horizon.
	jobs := []trace.Job{{
		ID: "far-future", Workload: testJobs(t, 1)[0].Workload,
		Iterations: 100, ReqGPUs: 2, ReqType: "A40", Priority: 1,
		SubmitTime: 1e7,
	}}
	rounds := 0
	res, err := RunCtx(context.Background(), Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
		Progress: func(core.Event) { rounds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= 400 {
		t.Errorf("idle run burned all %d rounds; want early stop", rounds)
	}
	if rounds > 10 {
		t.Errorf("idle run took %d rounds to stop; want a handful", rounds)
	}
	if res.Total != 0 {
		t.Errorf("job beyond the horizon counted into Total=%d", res.Total)
	}
}

func TestEngineSubmitStampsNow(t *testing.T) {
	e, err := NewEngine(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := testJobs(t, 1)[0].Workload
	j := e.Submit(trace.Job{ID: "live", Workload: w, Iterations: 100, ReqGPUs: 2, ReqType: "A40"}, 1234)
	if j.Trace.SubmitTime != 1234 {
		t.Errorf("zero SubmitTime not stamped with now: got %g", j.Trace.SubmitTime)
	}
	j2 := e.Submit(trace.Job{ID: "replay", Workload: w, Iterations: 100, ReqGPUs: 2, ReqType: "A40", SubmitTime: 77}, 1234)
	if j2.Trace.SubmitTime != 77 {
		t.Errorf("explicit SubmitTime overwritten: got %g", j2.Trace.SubmitTime)
	}
}
