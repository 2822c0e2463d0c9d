package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// runFaultSim is runSim with a fault configuration and a round bound.
func runFaultSim(t *testing.T, p sched.Policy, jobs []trace.Job, fc *faults.Config, maxRounds int) *Result {
	t.Helper()
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: p, Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: maxRounds,
		IncludeUnfinished: true, Seed: 1, Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// longJobs builds jobs with enough work to still be running when a
// mid-trace failure storm hits.
func longJobs(n int) []trace.Job {
	jobs := make([]trace.Job, n)
	for i := range jobs {
		jobs[i] = trace.Job{
			ID:         fmt.Sprintf("long-%02d", i),
			Workload:   model.Workload{Model: "WRes-1B", GlobalBatch: 256},
			Iterations: 20000, ReqGPUs: 2, ReqType: "A40", Priority: 1,
		}
	}
	return jobs
}

// stormTrace scripts a cluster-wide outage: every node of both regions
// crashes at t=5000 and recovers at t=6000, so every running job is
// preempted exactly once.
func stormTrace(t *testing.T) faults.Schedule {
	t.Helper()
	var sb strings.Builder
	for _, typ := range []string{"A40", "A10"} {
		for node := 0; node < 16; node++ {
			fmt.Fprintf(&sb, "5000 crash %s %d\n6000 recover %s %d\n", typ, node, typ, node)
		}
	}
	s, err := faults.ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// faultOutcome extends the determinism comparison with the fault-path
// counters jobOutcome predates.
type faultOutcome struct {
	jobOutcome
	Preemptions int
	Restarts    int
	Migrations  int
}

func faultOutcomes(res *Result) map[string]faultOutcome {
	base := outcomes(res)
	out := map[string]faultOutcome{}
	for _, j := range res.Jobs {
		out[j.Trace.ID] = faultOutcome{
			jobOutcome:  base[j.Trace.ID],
			Preemptions: j.Preemptions,
			Restarts:    j.Restarts,
			Migrations:  j.Migrations,
		}
	}
	return out
}

func TestSimFaultDeterminismMatrix(t *testing.T) {
	// The whole point of seeding the fault realization: a run with crash
	// injection, straggler injection, or a scripted trace must be
	// bit-identical to a rerun with the same seed — and a disabled config
	// must stay deterministic too.
	jobs := testJobs(t, 30)
	configs := map[string]*faults.Config{
		"off": nil,
		"model": {
			Model: &faults.Model{
				Default: faults.TypeFaults{MTBF: 2 * 3600, MTTR: 1800, SlowEvery: 4 * 3600},
			},
			CheckpointInterval: 900,
		},
		"trace": {Trace: stormTrace(t), CheckpointInterval: 600},
	}
	for name, fc := range configs {
		a := runFaultSim(t, sched.NewArena(), jobs, fc, 0)
		b := runFaultSim(t, sched.NewArena(), jobs, fc, 0)
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("%s: summaries differ between identical seeded runs", name)
		}
		if !reflect.DeepEqual(faultOutcomes(a), faultOutcomes(b)) {
			t.Errorf("%s: per-job outcomes differ between identical seeded runs", name)
		}
		switch name {
		case "off":
			if a.Preemptions != 0 || a.Restarts != 0 || a.WastedGPUHours != 0 {
				t.Errorf("off: fault counters nonzero on a fault-free run: %+v", a.Summary)
			}
			if a.GoodputGPUHours <= 0 {
				t.Error("off: goodput accounting should run even without faults")
			}
		case "model":
			if a.Preemptions == 0 {
				t.Error("model: a 2h-MTBF realization preempted nothing; the matrix is vacuous")
			}
		}
	}
}

func TestSimFaultRecoveryAblation(t *testing.T) {
	// The acceptance ablation: on the same scripted outage, checkpoint
	// recovery must yield strictly more goodput AND strictly fewer wasted
	// GPU-hours than letting preempted jobs die.
	jobs := longJobs(8)
	fc := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600}
	off := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600, DisableRecovery: true}
	en := runFaultSim(t, sched.NewArena(), jobs, fc, 60)
	dis := runFaultSim(t, sched.NewArena(), jobs, off, 60)

	if en.Preemptions == 0 {
		t.Fatal("outage preempted nothing; fixture broken")
	}
	if en.Failed != 0 {
		t.Errorf("with recovery, %d jobs failed inside a %d-retry budget", en.Failed, en.Preemptions)
	}
	if en.Restarts == 0 {
		t.Error("with recovery, preempted jobs must restart")
	}
	if dis.Failed == 0 {
		t.Error("without recovery, preempted jobs must fail")
	}
	if en.GoodputGPUHours <= dis.GoodputGPUHours {
		t.Errorf("recovery goodput %.1f GPUh must exceed no-recovery %.1f",
			en.GoodputGPUHours, dis.GoodputGPUHours)
	}
	if en.WastedGPUHours >= dis.WastedGPUHours {
		t.Errorf("recovery waste %.1f GPUh must undercut no-recovery %.1f",
			en.WastedGPUHours, dis.WastedGPUHours)
	}
	if en.RecomputeSeconds <= 0 {
		t.Error("restarted jobs recompute their lost checkpoint window")
	}
}

func TestSimCrashRollsBackToCheckpoint(t *testing.T) {
	// A preempted job resumes from its last modeled checkpoint, not from
	// its live progress: remaining work grows back at the crash.
	jobs := longJobs(1)
	fc := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600}
	res := runFaultSim(t, policy.NewFCFS(), jobs, fc, 40)
	j := res.Jobs[0]
	if j.Preemptions != 1 || j.Restarts != 1 {
		t.Fatalf("preemptions=%d restarts=%d, want 1/1", j.Preemptions, j.Restarts)
	}
	total := jobs[0].TotalSamples()
	if j.RemainingSamples >= total {
		t.Error("job lost all progress despite checkpointing")
	}
	if res.WastedGPUHours <= 0 {
		t.Error("the rolled-back window must be accounted as waste")
	}
	// Conservation: everything the cluster computed is either retained
	// goodput or waste.
	if res.GoodputGPUHours <= 0 {
		t.Error("checkpointed progress must be retained as goodput")
	}
}

func TestSimRestartBackoffGatesRelaunch(t *testing.T) {
	// A preempted job with a large backoff base must sit out the rest of
	// a short horizon even though capacity recovered long before.
	jobs := longJobs(1)
	fc := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600, BackoffBase: 100000}
	res := runFaultSim(t, policy.NewFCFS(), jobs, fc, 30) // horizon 9000s << 5000+100000
	j := res.Jobs[0]
	if j.Preemptions != 1 {
		t.Fatalf("preemptions=%d, want 1", j.Preemptions)
	}
	if j.State != sched.StateQueued {
		t.Errorf("job state %s; a 100000s backoff must keep it queued through t=9000", j.State)
	}
	if want := 5000 + 100000.0; math.Abs(j.NextEligibleAt-want) > 1e-6 {
		t.Errorf("NextEligibleAt = %v, want %v", j.NextEligibleAt, want)
	}
}

func TestSimRetryBudgetExhaustionFails(t *testing.T) {
	// Three cluster-wide outages against a retry budget of 2: the third
	// preemption must fail the job instead of requeueing it.
	var sb strings.Builder
	for _, at := range [][2]int{{1000, 1200}, {2500, 2700}, {4000, 4200}} {
		for _, typ := range []string{"A40", "A10"} {
			for node := 0; node < 16; node++ {
				fmt.Fprintf(&sb, "%d crash %s %d\n%d recover %s %d\n", at[0], typ, node, at[1], typ, node)
			}
		}
	}
	sched3, err := faults.ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	fc := &faults.Config{Trace: sched3, CheckpointInterval: 600, RetryBudget: 2, BackoffBase: 60}
	res := runFaultSim(t, policy.NewFCFS(), longJobs(1), fc, 25)
	j := res.Jobs[0]
	if j.State != sched.StateFailed {
		t.Fatalf("job state %s, want failed after exhausting 2 retries (preemptions=%d)",
			j.State, j.Preemptions)
	}
	if j.Preemptions != 3 || j.Restarts != 2 {
		t.Errorf("preemptions=%d restarts=%d, want 3/2", j.Preemptions, j.Restarts)
	}
	if res.Failed != 1 {
		t.Errorf("Summary.Failed = %d, want 1", res.Failed)
	}
	if res.GoodputGPUHours != 0 {
		t.Errorf("a failed job retains no goodput, got %.2f GPUh", res.GoodputGPUHours)
	}
}

func TestSimArenaRoutesAroundStraggler(t *testing.T) {
	// A long straggler episode on the job's nodes, with healthy same-type
	// capacity free: Arena must migrate the job off the slow nodes (and a
	// straggler-blind policy must not).
	var sb strings.Builder
	for _, typ := range []string{"A40", "A10"} {
		for node := 0; node < 8; node++ {
			fmt.Fprintf(&sb, "2000 slow %s %d 0.2 100000\n", typ, node)
		}
	}
	slowTrace, err := faults.ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	fc := &faults.Config{Trace: slowTrace, CheckpointInterval: 1800}

	p := sched.NewArena()
	p.D = 0 // pin the allocation: isolate routing from elastic rescaling
	arena := runFaultSim(t, p, longJobs(1), fc, 0)
	aj := arena.Jobs[0]
	if aj.Migrations == 0 {
		t.Fatalf("Arena never migrated off the straggler (slow factor %v)", aj.SlowFactor)
	}
	if aj.State != sched.StateFinished {
		t.Fatalf("migrated job state %s, want finished", aj.State)
	}
	if aj.SlowFactor != 1 {
		t.Errorf("after routing, the job should sit on healthy nodes, factor %v", aj.SlowFactor)
	}

	fcfs := runFaultSim(t, policy.NewFCFS(), longJobs(1), fc, 0)
	fj := fcfs.Jobs[0]
	if fj.Migrations != 0 {
		t.Fatal("FCFS has no routing; fixture assumption broken")
	}
	if fj.State == sched.StateFinished && aj.State == sched.StateFinished &&
		aj.FinishedAt >= fj.FinishedAt {
		t.Errorf("routing must beat sitting on a 0.2x node: arena %v vs fcfs %v",
			aj.FinishedAt, fj.FinishedAt)
	}
}

func TestSimCancellationMidFailureStorm(t *testing.T) {
	// Cancelling during a fault-heavy run stops at the round boundary and
	// leaks nothing: the simulator is synchronous, so the goroutine count
	// must return to its baseline.
	before := runtime.NumGoroutine()
	jobs := testJobs(t, 30)
	fc := &faults.Config{
		Model:              &faults.Model{Default: faults.TypeFaults{MTBF: 1800, MTTR: 900, SlowEvery: 3600}},
		CheckpointInterval: 600,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds atomic.Int32
	res, err := RunCtx(ctx, Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true, Seed: 1, Faults: fc,
		Progress: func(e core.Event) {
			if rounds.Add(1) == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled || res != nil {
		t.Fatalf("mid-storm cancel: res=%v err=%v, want nil/context.Canceled", res, err)
	}
	if got := rounds.Load(); got != 5 {
		t.Fatalf("simulation ran %d rounds after cancellation at round 5", got)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestSimFaultTraceValidatedAgainstSpec(t *testing.T) {
	// A trace naming nodes outside the simulated cluster must be rejected
	// up front, not crash mid-run.
	bad := faults.Schedule{{Time: 10, Kind: faults.Crash, GPUType: "A40", Node: 99}}
	_, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: trace.SliceSource(longJobs(1)), DB: db(t),
		RoundSeconds: 300, Faults: &faults.Config{Trace: bad},
	})
	if err == nil {
		t.Fatal("off-spec fault trace accepted")
	}
}

// scriptPolicy replays a fixed per-round assignment script with constant
// throughput and overheads — a harness for exact overhead arithmetic.
type scriptPolicy struct {
	script map[int]sched.Assignment
	round  int
	deploy float64
	thr    float64
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) Assign(ctx *sched.Context) sched.Assignment {
	asg := p.script[p.round]
	p.round++
	return asg
}
func (p *scriptPolicy) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return p.thr
}
func (p *scriptPolicy) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return p.thr
}
func (p *scriptPolicy) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 { return 0 }
func (p *scriptPolicy) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return p.deploy
}

func TestSimRescaleStacksOnPendingDeploy(t *testing.T) {
	// Regression: rescaling a job that was still inside its deployment
	// window used to recharge BusyUntil from `now`, so the rescale
	// *shortened* the stall and the job finished impossibly early.
	//
	// Script: launch at t=0 on 2 GPUs with a 2000s deploy (busy until
	// 2000), rescale at t=300 to 4 GPUs. The rescale must stack its
	// checkpoint-resume (300s) plus 20% of the search (400s) on top of the
	// pending deploy: busy until 2700, and the 1024-sample job at 1
	// sample/s finishes at 3724. The buggy arithmetic gave 300+300+400 =
	// busy until 1000, finishing at 2024.
	p := &scriptPolicy{
		thr:    1.0,
		deploy: 2000,
		script: map[int]sched.Assignment{
			0: {Place: map[string]sched.Alloc{"j1": {GPUType: "A40", N: 2}}},
			1: {Place: map[string]sched.Alloc{"j1": {GPUType: "A40", N: 4}}},
		},
	}
	jobs := []trace.Job{{
		ID:       "j1",
		Workload: model.Workload{Model: "WRes-1B", GlobalBatch: 256},
		// 4 iterations x 256 samples = 1024 samples = 1024s at thr 1.
		Iterations: 4, ReqGPUs: 2, ReqType: "A40", Priority: 1,
	}}
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: p, Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 40, IncludeUnfinished: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != sched.StateFinished {
		t.Fatalf("job state %s, want finished", j.State)
	}
	if want := 3724.0; math.Abs(j.FinishedAt-want) > 1e-6 {
		t.Fatalf("FinishedAt = %v, want %v (overlapping reconfiguration overheads must stack)",
			j.FinishedAt, want)
	}
}

// TestApplyResolvesAssignmentOnce drives apply through the scripted
// policy with assignment shapes no golden run produces: a drop listed
// twice, a drop naming a running job, a placement for an unknown ID, a
// zero placement and a migration of a queued job. The duplicate drop
// retires its job once, the running job keeps running, the rest change
// nothing, and the queue keeps its order around the round's launch and
// drop. Two more rounds pin the scan's early exit: a placement for the
// last queued job next to a ghost ID and an ID both placed and dropped
// (the drop wins), then a drop and a placement whose IDs are the last
// two jobs the scan reaches, with no ghost to force a full scan.
func TestApplyResolvesAssignmentOnce(t *testing.T) {
	a40x2 := sched.Alloc{GPUType: "A40", N: 2}
	p := &scriptPolicy{thr: 1, script: map[int]sched.Assignment{
		0: {Place: map[string]sched.Alloc{"j1": a40x2}},
		1: {
			Drop:    []string{"j3", "j1", "j3"},
			Migrate: []string{"j5"},
			Place: map[string]sched.Alloc{
				"j4": a40x2, "j2": {}, "ghost": a40x2,
			},
		},
		2: {
			Drop:  []string{"j2"},
			Place: map[string]sched.Alloc{"j6": a40x2, "ghost": a40x2, "j2": a40x2},
		},
		3: {
			Drop:  []string{"j7"},
			Place: map[string]sched.Alloc{"j8": a40x2},
		},
	}}
	e, err := NewEngine(Config{Spec: hw.ClusterA(), Policy: p, DB: db(t), MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	for _, id := range []string{"j1", "j2", "j3", "j4", "j5", "j6"} {
		e.Submit(trace.Job{ID: id, Workload: w, Iterations: 1000, ReqGPUs: 2, ReqType: "A40", Priority: 1}, 0)
	}
	check := func(round int, want []string, dropped int) {
		t.Helper()
		var order []string
		for _, j := range e.Jobs() {
			order = append(order, j.Trace.ID+":"+string(j.State))
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("jobs after round %d = %v, want %v", round, order, want)
		}
		if st := e.Stats(); st.Dropped != dropped || st.Migrations != 0 {
			t.Fatalf("stats after round %d %+v: want %d drops and no migration", round, st, dropped)
		}
	}
	e.Round(0)
	e.Round(300)
	check(1, []string{"j3:dropped", "j1:running", "j4:running", "j2:queued", "j5:queued", "j6:queued"}, 1)
	e.Round(600)
	check(2, []string{"j3:dropped", "j2:dropped", "j1:running", "j4:running", "j6:running", "j5:queued"}, 2)
	for _, id := range []string{"j7", "j8"} {
		e.Submit(trace.Job{ID: id, Workload: w, Iterations: 1000, ReqGPUs: 2, ReqType: "A40", Priority: 1}, 600)
	}
	e.Round(900)
	check(3, []string{"j3:dropped", "j2:dropped", "j7:dropped", "j1:running", "j4:running", "j6:running", "j8:running", "j5:queued"}, 3)
}
