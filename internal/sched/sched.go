// Package sched defines the scheduling layer: job state, the policy
// interface, and Arena's generalized event-driven scheduler (§3.5) with
// its priority multi-queue launching, two-dimensional scaling and
// pluggable objectives. Baseline policies (FCFS, Gavel, ElasticFlow, Sia)
// live in the policy subpackage.
//
// A Policy supplies four knowledge models besides its assignment logic:
// the throughput it *perceives* when deciding (DP profiles for SP-aware
// baselines, profiled grid estimates for Arena), the throughput a job
// *actually* achieves once deployed (full-AP for baselines, Arena's
// pruned-search plan for Arena — §5.1: every scheduler executes jobs with
// adaptive parallelism), the ahead-of-time profiling wall time prepended
// to submissions, and the parallelism-search overhead paid at every
// (re)deployment. The simulator consults these models so each scheduler
// lives in exactly the information regime the paper gives it.
package sched

import (
	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Alloc is a resource grant: n GPUs of one type (intra-job homogeneity,
// §3.5).
type Alloc struct {
	GPUType string
	N       int
}

// IsZero reports an empty grant.
func (a Alloc) IsZero() bool { return a.N == 0 }

// JobState tracks a job through its lifecycle.
type JobState string

// Lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateFinished JobState = "finished"
	StateDropped  JobState = "dropped"
	// StateFailed marks a job killed by fault injection: its retry budget
	// is exhausted (or recovery is ablated away), so its progress is lost
	// for good. Distinct from StateDropped, which is a deliberate
	// deadline-admission decision.
	StateFailed JobState = "failed"
)

// Job is the scheduler-facing job record.
type Job struct {
	Trace trace.Job
	State JobState

	// SubmittedAt is the effective submission time: trace submission plus
	// the policy's ahead-of-time profiling prepend (§5.1).
	SubmittedAt float64
	// LaunchedAt is the first time the job received resources (<0 = never).
	LaunchedAt float64
	// FinishedAt is set on completion or drop.
	FinishedAt float64

	Alloc            Alloc   // current grant (zero while queued)
	ActualThr        float64 // achieved samples/s under the current grant
	RemainingSamples float64
	// BusyUntil: the job is reconfiguring (AP search, checkpoint-resume)
	// and contributes zero throughput until this time.
	BusyUntil float64

	Resched int // reallocation count (the paper reports 2.29 avg, §5.3)

	// CurPriority is the live priority (promotion lowers it over time).
	CurPriority int

	// Fault-model bookkeeping (populated only by fault-injected runs).

	// Preemptions counts crash evictions suffered; Restarts counts the
	// retry budget consumed; Migrations counts straggler-avoidance moves.
	Preemptions int
	Restarts    int
	Migrations  int
	// NextEligibleAt gates relaunch after a crash: exponential backoff
	// keeps a flapping node from burning the retry budget in one storm.
	NextEligibleAt float64
	// CheckpointRemaining is RemainingSamples at the last durable
	// checkpoint — where a crash rolls the job back to.
	CheckpointRemaining float64
	// Restarting marks that the next launch is a checkpoint restore and
	// must pay the resume overhead on top of the deployment search.
	Restarting bool
	// ladderHint is 1 + the index of the job's launch ladder in the
	// Arena policy's ladder list (0 = none yet). It sits in the padding
	// after Restarting, so Job stays 256 bytes. The policy checks the
	// hinted ladder's signature before using it, so a stale hint (another
	// policy instance, a reset cache, a flipped ablation) only misses.
	ladderHint uint32
	// SlowFactor is the straggler degradation of the current allocation
	// (multiplies achieved throughput; 0 or 1 = healthy).
	SlowFactor float64
}

// Workload is shorthand for the job's (model, batch) pair.
func (j *Job) Workload() model.Workload { return j.Trace.Workload }

// Running reports whether the job currently holds resources.
func (j *Job) Running() bool { return j.State == StateRunning }

// Context is the policy's view of one scheduling round.
type Context struct {
	Now     float64
	Queued  []*Job // submitted, not running; ascending submission order
	Running []*Job
	Cluster *cluster.Cluster
	DB      *perfdb.DB
	// MaxPerJob caps any single job's allocation (the paper's N, §2.3).
	MaxPerJob int
}

// Assignment is a policy's decision for the round.
type Assignment struct {
	// Place maps job ID → target allocation. Queued jobs with a target
	// launch; running jobs with a different target rescale (paying the
	// reconfiguration overhead). A zero Alloc does nothing: the job keeps
	// its state and its resources (no policy emits one).
	Place map[string]Alloc
	// Drop lists jobs abandoned as unable to meet their deadline (§5.6).
	Drop []string
	// Migrate lists running jobs to move to a fresh allocation of the
	// *same* shape, paying checkpoint-resume but no new parallelism
	// search — the straggler-routing escape hatch. Ignored for ids that
	// also appear in Place.
	Migrate []string
}

// NewAssignment returns an empty assignment.
func NewAssignment() Assignment {
	return Assignment{Place: map[string]Alloc{}}
}

// Policy is a cluster scheduling policy plus its knowledge models.
type Policy interface {
	Name() string

	// Assign computes this round's decisions.
	Assign(ctx *Context) Assignment

	// PerceivedThr is the throughput the policy believes the workload
	// achieves on n GPUs of the type — the basis of its decisions.
	PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64

	// ActualThr is the throughput the job really achieves there (§5.1:
	// execution always uses adaptive parallelism).
	ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64

	// ProfilePrepend is the ahead-of-time profiling wall time added to
	// the job's submission (§5.1).
	ProfilePrepend(db *perfdb.DB, w model.Workload) float64

	// DeployOverhead is the parallelism-search plus restart time paid
	// when (re)deploying a job on an allocation.
	DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64
}

// CheckpointResume is the state save/restore time charged on top of the
// parallelism search whenever a *running* job is rescaled or migrated
// (§5.8: "checkpoint-resume (<5 minutes)").
const CheckpointResume = 300.0

// BestFeasible returns the allocation maximizing thr(type, n) over the
// policy-perceived table, subject to current free capacity; ok = false
// when nothing feasible fits. Ties prefer fewer GPUs, then the canonical
// type order.
func BestFeasible(ctx *Context, thr func(gpuType string, n int) float64) (Alloc, bool) {
	var best Alloc
	var bestThr float64
	found := false
	for _, typ := range ctx.Cluster.GPUTypes() {
		for n := 1; n <= ctx.MaxPerJob; n *= 2 {
			t := thr(typ, n)
			if t <= 0 || !ctx.Cluster.CanAlloc(typ, n) {
				continue
			}
			better := t > bestThr ||
				(t == bestThr && found && n < best.N)
			if !found || better {
				best, bestThr, found = Alloc{GPUType: typ, N: n}, t, true
			}
		}
	}
	return best, found
}

// MinFeasible returns the cheapest (fewest-GPU) allocation with positive
// perceived throughput under current capacity.
func MinFeasible(ctx *Context, thr func(gpuType string, n int) float64) (Alloc, bool) {
	var best Alloc
	var bestThr float64
	found := false
	for _, typ := range ctx.Cluster.GPUTypes() {
		for n := 1; n <= ctx.MaxPerJob; n *= 2 {
			t := thr(typ, n)
			if t <= 0 || !ctx.Cluster.CanAlloc(typ, n) {
				continue
			}
			if !found || n < best.N || (n == best.N && t > bestThr) {
				best, bestThr, found = Alloc{GPUType: typ, N: n}, t, true
			}
			break // smallest n for this type found
		}
	}
	return best, found
}
