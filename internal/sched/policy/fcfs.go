// Package policy implements the four baseline schedulers the paper
// compares against (§5.1): FCFS, Gavel, ElasticFlow-LS, and Sia. Each
// baseline schedules on static-parallelism knowledge (or linear
// estimates) while its jobs execute with adaptive parallelism — the
// SP-scheduling / AP-execution mismatch the paper dissects (§2.2).
package policy

import (
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// FCFS rigidly schedules jobs with their user-specified resources in
// arrival order (the Kubernetes default the paper cites). A blocked head
// job blocks everything behind it; no scaling ever happens.
//
// FCFS keeps no score caches: head-of-line blocking already bounds
// per-round work to the launched prefix plus one blocked probe, so there
// is nothing for a cache to save.
type FCFS struct{}

// NewFCFS returns the policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements sched.Policy.
func (f *FCFS) Name() string { return "fcfs" }

// Assign launches queued jobs strictly in order until the first one that
// does not fit.
func (f *FCFS) Assign(ctx *sched.Context) sched.Assignment {
	asg := sched.NewAssignment()
	free := map[string]int{}
	for _, typ := range ctx.Cluster.GPUTypes() {
		free[typ] = ctx.Cluster.FreeGPUs(typ)
	}
	for _, job := range ctx.Queued {
		alloc := f.request(ctx, job)
		if alloc.N > free[alloc.GPUType] {
			break // head-of-line blocking
		}
		asg.Place[job] = alloc
		free[alloc.GPUType] -= alloc.N
	}
	return asg
}

// request returns the user's rigid request, bumped up to the smallest
// count at which the job can run at all (users of rigid schedulers size
// their requests to fit, and AP execution defines what fits).
func (f *FCFS) request(ctx *sched.Context, job *sched.Job) sched.Alloc {
	n := job.Trace.ReqGPUs
	typ := job.Trace.ReqType
	min := ctx.DB.MinFeasibleAP(job.Workload(), typ)
	if min == 0 {
		// Infeasible on the requested type: the user picks the fastest
		// type that works.
		for _, t := range ctx.Cluster.GPUTypes() {
			if m := ctx.DB.MinFeasibleAP(job.Workload(), t); m != 0 {
				typ, min = t, m
				break
			}
		}
	}
	if min > n {
		n = min
	}
	return sched.Alloc{GPUType: typ, N: n}
}

// PerceivedThr implements sched.Policy: FCFS consults no performance
// data; report what execution will achieve so feasibility checks work.
func (f *FCFS) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.APThr(w, gpuType, n)
}

// ActualThr implements sched.Policy: jobs execute with AP (§5.1).
func (f *FCFS) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.APThr(w, gpuType, n)
}

// ProfilePrepend implements sched.Policy: no ahead-of-time profiling.
func (f *FCFS) ProfilePrepend(*perfdb.DB, model.Workload) float64 { return 0 }

// DeployOverhead implements sched.Policy: every launch pays the full AP
// search of the execution backend.
func (f *FCFS) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.SearchTimeFull(w, gpuType, n)
}
