package policy

import (
	"math"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// ElasticFlow (the -LS "loosened deadline" variant the paper compares
// against) elastically scales each job's GPU *count* within its
// homogeneous region: jobs stay on their requested type, launch at the
// minimum feasible size, and idle GPUs flow to the jobs with the best
// marginal perceived gain. Knowledge is full-space DP profiling.
type ElasticFlow struct {
	// ts is the round's targets, kept between rounds (sched.Targets).
	ts sched.Targets
}

// elasticFlowScaleGain gates the doubling of a job's GPU count: a rescale
// restarts the job, so only a perceived throughput gain above this factor
// grows it.
const elasticFlowScaleGain = 1.25

// NewElasticFlow returns the policy.
func NewElasticFlow() *ElasticFlow { return &ElasticFlow{} }

// Name implements sched.Policy.
func (e *ElasticFlow) Name() string { return "elasticflow-ls" }

// region returns the job's home region: the requested type, or the first
// type where the job is perceived-feasible at all.
func (e *ElasticFlow) region(ctx *sched.Context, job *sched.Job) string {
	typ := job.Trace.ReqType
	for n := 1; n <= ctx.DB.MaxN; n *= 2 {
		if dpView(ctx.DB, job.Workload(), typ, n) > 0 {
			return typ
		}
	}
	for _, t := range ctx.Cluster.GPUTypes() {
		for n := 1; n <= ctx.DB.MaxN; n *= 2 {
			if dpView(ctx.DB, job.Workload(), t, n) > 0 {
				return t
			}
		}
	}
	return typ
}

// Assign admits queued jobs at their minimum feasible size, then grows
// the best marginal jobs (queued admissions included) with the remaining
// idle capacity; running jobs also shrink when newly admitted jobs need
// room (ElasticFlow's admission-driven elasticity).
func (e *ElasticFlow) Assign(ctx *sched.Context) sched.Assignment {
	asg := sched.NewAssignment()
	// The round's free capacity and targets, by type and job index: the
	// running set in order, then each admission. Growth breaks equal
	// gains by that index, so ties decide deterministically.
	ts := &e.ts
	ts.Reset(ctx, ctx.Cluster.GPUTypes())

	// Admission at minimum feasible size, arrival order. Shrink work per
	// round is bounded so huge backlogs cannot stall the scheduler.
	//
	// Two round-scoped caches skip repeated work without changing a
	// decision: a (workload, requested-type) → (region, minN) memo —
	// perceived throughputs are fixed within a round, so the region scan
	// is a pure per-signature function — and a per-type no-victim flag.
	// Victim sets only shrink within a round (admission shrinks targets
	// and adds queued jobs, which the victim scan never looks at), so
	// once a region's scan comes up empty every later scan would too;
	// each skipped scan still costs the one budget unit a futile scan
	// spends.
	type regionKey struct {
		w       model.Workload
		reqType string
	}
	type regionVal struct {
		typ  string
		minN int
	}
	regions := map[regionKey]regionVal{}
	noVictim := map[string]bool{}
	shrinkBudget := 64
	for _, job := range ctx.Queued {
		key := regionKey{w: job.Trace.Workload, reqType: job.Trace.ReqType}
		rv, ok := regions[key]
		if !ok {
			rv.typ = e.region(ctx, job)
			rv.minN = e.minFeasible(ctx, job.Trace.Workload, rv.typ)
			regions[key] = rv
		}
		typ, minN := rv.typ, rv.minN
		if minN == 0 {
			continue
		}
		if ts.FreeOf(typ) < minN && shrinkBudget > 0 {
			if noVictim[typ] {
				// shrinkRegion would spend one budget unit scanning the
				// region, find no victim and return; skip the scan but
				// keep the spend.
				shrinkBudget--
			} else if e.shrinkRegion(ctx, ts, typ, minN, asg.Place, &shrinkBudget) {
				// Shrinking running jobs in this region to admit the
				// newcomer (deadline-loosened ElasticFlow favours
				// admission) ran out of victims for the rest of the round.
				noVictim[typ] = true
			}
		}
		if ts.FreeOf(typ) >= minN {
			asg.Place[job] = ts.Launch(job, ts.TypeIndex(typ), minN)
		}
	}

	// Elastic scale-up: repeatedly double the job with the best marginal
	// perceived gain per added GPU.
	sched.DoubleByGain(ts, 16, false, asg.Place, func(i int, cur sched.Alloc) (float64, bool) {
		return e.growthGain(ctx, ts.Jobs[i], cur)
	})
	return asg
}

// minFeasible is the smallest profiled size the workload runs at on typ.
func (e *ElasticFlow) minFeasible(ctx *sched.Context, w model.Workload, typ string) int {
	for n := 1; n <= ctx.DB.MaxN; n *= 2 {
		if dpView(ctx.DB, w, typ, n) > 0 {
			return n
		}
	}
	return 0
}

// growthGain scores one growth candidate at its current target: the
// marginal perceived gain per held GPU of doubling it, with the static
// gates (cap, reconfiguration cooldown, the gain threshold) applied.
// The free-capacity check stays with the caller — it is the only input
// that moves without the candidate itself being doubled.
func (e *ElasticFlow) growthGain(ctx *sched.Context, job *sched.Job, cur sched.Alloc) (float64, bool) {
	if cur.N*2 > ctx.DB.MaxN {
		return 0, false
	}
	if job.Running() && job.BusyUntil > ctx.Now {
		return 0, false
	}
	thrCur := dpView(ctx.DB, job.Workload(), cur.GPUType, cur.N)
	thrNew := dpView(ctx.DB, job.Workload(), cur.GPUType, cur.N*2)
	if thrCur <= 0 || thrNew <= thrCur*elasticFlowScaleGain {
		return 0, false
	}
	return (thrNew - thrCur) / float64(cur.N), true
}

// shrinkRegion halves the running jobs with the least throughput loss per
// freed GPU until `need` GPUs are free in the region (or nothing more can
// shrink). It reports whether it stopped because no shrinkable victim
// remains in the region — a condition that can only persist for the rest
// of the round, since admission never grows a running job's target.
func (e *ElasticFlow) shrinkRegion(ctx *sched.Context, ts *sched.Targets, typ string, need int, place map[*sched.Job]sched.Alloc, budget *int) bool {
	for ts.FreeOf(typ) < need && *budget > 0 {
		*budget--
		victim := -1
		bestCost := math.MaxFloat64
		for i, j := range ctx.Running {
			cur := ts.Target[i]
			if cur.GPUType != typ || cur.N < 2 || j.BusyUntil > ctx.Now {
				continue
			}
			thrCur := dpView(ctx.DB, j.Workload(), typ, cur.N)
			thrHalf := dpView(ctx.DB, j.Workload(), typ, cur.N/2)
			if thrHalf <= 0 {
				continue
			}
			cost := (thrCur - thrHalf) / float64(cur.N/2)
			if cost < bestCost {
				victim, bestCost = i, cost
			}
		}
		if victim < 0 {
			return true
		}
		cur := ts.Target[victim]
		next := sched.Alloc{GPUType: typ, N: cur.N / 2}
		ts.Target[victim] = next
		place[ctx.Running[victim]] = next
		ts.Free[ts.TypeIndex(typ)] += cur.N - next.N
	}
	return false
}

// PerceivedThr implements sched.Policy.
func (e *ElasticFlow) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return dpView(db, w, gpuType, n)
}

// ActualThr implements sched.Policy.
func (e *ElasticFlow) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.APThr(w, gpuType, n)
}

// ProfilePrepend implements sched.Policy: ElasticFlow profiles jobs with
// DP across allocable resources ahead of time (≈10 minutes, §1).
func (e *ElasticFlow) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 {
	return db.DPProfileWall(w)
}

// DeployOverhead implements sched.Policy.
func (e *ElasticFlow) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.SearchTimeFull(w, gpuType, n)
}
