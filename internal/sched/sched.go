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

	// QueueSeq is stamped by the engine from a per-engine counter each
	// time the job enters its queue (admission, crash requeue, a failed
	// migration or rescale), so the queue is in QueueSeq order and a
	// requeued job carries a newer QueueSeq than every job already
	// queued. Policies break launch-order ties on it.
	QueueSeq uint64

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
	Now float64
	// Queued lists the submitted jobs that are not running and may launch
	// this round, in the order they entered the queue (ascending
	// QueueSeq). That is not SubmittedAt order: a requeued job (crash
	// restart, failed move) and a daemon submission stamped in the past
	// enter behind jobs submitted after them.
	Queued  []*Job
	Running []*Job
	Cluster *cluster.Cluster
	DB      *perfdb.DB
	// MaxPerJob caps any single job's allocation (the paper's N, §2.3).
	MaxPerJob int
	// Changes, when non-nil, says how Queued differs from the previous
	// round's, so a policy can keep per-queue state across rounds instead
	// of rescanning Queued. The engine owns it and rewrites it every
	// round; a hand-built context leaves it nil.
	Changes *QueueChanges
}

// QueueChanges is the engine's account of a round's queue delta. One
// engine hands out the same QueueChanges every round, allocated apart
// from its own state, so a policy may keep the pointer to recognize the
// engine without keeping the engine alive. A job that leaves the queue
// is not listed anywhere: a policy's record of a queued job is current
// only while the job is still StateQueued under the same QueueSeq.
type QueueChanges struct {
	// Round counts the engine's rounds: 1 for its first, one more per
	// round after it.
	Round uint64
	// Entered lists the jobs of this round's Queued that were not in the
	// previous round's under the same QueueSeq, in Queued order:
	// admissions, requeues, and jobs whose crash backoff ended this round
	// (those sit mid-queue).
	Entered []*Job
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
//
// A Policy value serves one round loop at a time: it may keep state
// between Assign calls — caches, and buffers it refills every round
// instead of allocating (Arena keeps its launch ladders, launch FIFOs,
// merge heap, round targets and scale-down costs; Sia and ElasticFlow
// their round targets) — so two engines must not share one value at
// once. What it keeps must never reach a decision: Assign decides from
// the Context and the policy's exported configuration alone.
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
