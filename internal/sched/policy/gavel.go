package policy

import (
	"sort"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// Gavel performs heterogeneity-aware scheduling: it keeps each job's GPU
// count fixed at the user request but dynamically chooses the GPU *type*
// to maximize total throughput (a greedy stand-in for its ILP round
// solver, §5.1). Its knowledge is full-space DP profiling.
type Gavel struct{}

// gavelSwitchGain gates type migration of running jobs: moving a job pays
// checkpoint-resume + AP re-search, so only a perceived throughput gain
// above this factor moves it.
const gavelSwitchGain = 1.3

// NewGavel returns the policy.
func NewGavel() *Gavel { return &Gavel{} }

// Name implements sched.Policy.
func (g *Gavel) Name() string { return "gavel" }

// dpView is the throughput Gavel and ElasticFlow perceive: the DP view
// with the manual-fallback rule. When a workload fits DP on no GPU type,
// the user supplies a hand-tuned parallel plan and the policy schedules
// it by its measured (AP) throughput.
func dpView(db *perfdb.DB, w model.Workload, typ string, n int) float64 {
	if t := db.DPThr(w, typ, n); t > 0 {
		return t
	}
	for _, tt := range db.GPUTypes {
		if db.MinFeasibleDP(w, tt) != 0 {
			return 0 // DP fits somewhere: this (type, n) just looks OOM
		}
	}
	return db.APThr(w, typ, n)
}

// Assign greedily places queued jobs on the type with the best perceived
// throughput, then migrates running jobs whose perceived gain on another
// type clears the threshold.
func (g *Gavel) Assign(ctx *sched.Context) sched.Assignment {
	asg := sched.NewAssignment()
	free := map[string]int{}
	for _, typ := range ctx.Cluster.GPUTypes() {
		free[typ] = ctx.Cluster.FreeGPUs(typ)
	}

	// Queued jobs: best-type placement, highest density first (Gavel's
	// round solver maximizes Σ throughput).
	//
	// A job's demand and per-type throughputs are a pure function of its
	// (workload, requested count) within a round, so each distinct pair is
	// scored once — a deep backlog of look-alike jobs costs one lookup
	// apiece instead of one database walk. The density sort and the
	// free-capacity placement loop stay per job: capacity is the input
	// that moves as jobs place.
	types := ctx.Cluster.GPUTypes()
	type score struct {
		n       int       // demand (0 = unservable)
		bestTyp string    // preferred type (first strict-max in type order)
		bestThr float64   // its perceived throughput
		byType  []float64 // perceived throughput per types[i] at n
	}
	type scoreKey struct {
		w   model.Workload
		req int
	}
	scoreOf := func(job *sched.Job) score {
		sc := score{n: g.demand(ctx.DB, job)}
		if sc.n == 0 {
			return sc
		}
		sc.byType = make([]float64, len(types))
		for ti, typ := range types {
			thr := dpView(ctx.DB, job.Workload(), typ, sc.n)
			sc.byType[ti] = thr
			if thr > sc.bestThr {
				sc.bestTyp, sc.bestThr = typ, thr
			}
		}
		return sc
	}
	cache := map[scoreKey]score{}
	type cand struct {
		job *sched.Job
		thr float64
		typ string
		n   int
		sc  score
	}
	var cands []cand
	for _, job := range ctx.Queued {
		key := scoreKey{w: job.Trace.Workload, req: job.Trace.ReqGPUs}
		sc, ok := cache[key]
		if !ok {
			sc = scoreOf(job)
			cache[key] = sc
		}
		if sc.n == 0 || sc.bestThr <= 0 {
			continue
		}
		cands = append(cands, cand{job: job, thr: sc.bestThr, typ: sc.bestTyp, n: sc.n, sc: sc})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].thr/float64(cands[a].n) > cands[b].thr/float64(cands[b].n)
	})
	for _, c := range cands {
		// Preferred type first, then any type with capacity.
		if free[c.typ] >= c.n {
			asg.Place[c.job] = sched.Alloc{GPUType: c.typ, N: c.n}
			free[c.typ] -= c.n
			continue
		}
		for ti, typ := range types {
			if c.sc.byType[ti] > 0 && free[typ] >= c.n {
				asg.Place[c.job] = sched.Alloc{GPUType: typ, N: c.n}
				free[typ] -= c.n
				break
			}
		}
	}

	// Running jobs: migrate types on clear perceived wins.
	for _, job := range ctx.Running {
		if job.BusyUntil > ctx.Now {
			continue
		}
		cur := job.Alloc
		curThr := dpView(ctx.DB, job.Workload(), cur.GPUType, cur.N)
		for _, typ := range ctx.Cluster.GPUTypes() {
			if typ == cur.GPUType || free[typ] < cur.N {
				continue
			}
			newThr := dpView(ctx.DB, job.Workload(), typ, cur.N)
			if curThr > 0 && newThr > curThr*gavelSwitchGain {
				asg.Place[job] = sched.Alloc{GPUType: typ, N: cur.N}
				free[typ] -= cur.N
				free[cur.GPUType] += cur.N
				break
			}
		}
	}
	return asg
}

// demand is the job's fixed GPU count: the user request, raised to the
// DP-feasibility floor its profiles report (Case#2's overestimation).
// When the DP floor exceeds the per-job cap (the database's MaxN), the
// job falls back to a manually partitioned plan at the AP floor.
func (g *Gavel) demand(db *perfdb.DB, job *sched.Job) int {
	dpMin, apMin := 0, 0
	for _, typ := range db.GPUTypes {
		if m := db.MinFeasibleDP(job.Workload(), typ); m != 0 && (dpMin == 0 || m < dpMin) {
			dpMin = m
		}
		if m := db.MinFeasibleAP(job.Workload(), typ); m != 0 && (apMin == 0 || m < apMin) {
			apMin = m
		}
	}
	minN := dpMin
	if minN == 0 || minN > db.MaxN {
		minN = apMin // manual plan fallback
	}
	if minN == 0 || minN > db.MaxN {
		return 0
	}
	n := job.Trace.ReqGPUs
	if minN > n {
		n = minN
	}
	if n > db.MaxN {
		n = db.MaxN
	}
	return n
}

// PerceivedThr implements sched.Policy.
func (g *Gavel) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return dpView(db, w, gpuType, n)
}

// ActualThr implements sched.Policy: execution uses AP (§5.1).
func (g *Gavel) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.APThr(w, gpuType, n)
}

// ProfilePrepend implements sched.Policy: full-space DP profiling.
func (g *Gavel) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 {
	return db.DPProfileWall(w)
}

// DeployOverhead implements sched.Policy: full AP search per deployment.
func (g *Gavel) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.SearchTimeFull(w, gpuType, n)
}
