package sched

import (
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
)

// Objective selects the scheduling goal of the generalized event-driven
// policy (§3.5): throughput maximization (Eq. 5), deadline awareness
// (Eq. 6), or finish-time fairness (Eq. 7).
type Objective string

// Supported objectives.
const (
	ObjThroughput Objective = "throughput"
	ObjDeadline   Objective = "deadline"
	ObjFairness   Objective = "fairness"
)

// ArenaPolicy implements Algorithm 1: priority-based multi-queue
// launching with conditional same-queue preemption and priority
// promotion, two-dimensional (elasticity × heterogeneity) scaling with a
// bounded search depth, and AP-aware performance data from the grid
// profiles. The Disable* switches realize the Fig. 17 ablations.
type ArenaPolicy struct {
	P            int     // priority queue count (§5.8: 3 in practice)
	D            int     // scaling search depth (§5.8: 2–5)
	PromoteAfter float64 // queueing time before priority promotion
	Objective    Objective

	// Ablation switches (§5.7, Fig. 17).
	DisablePlanner  bool // schedule on static-DP performance data
	DisableProfiler bool // fall back to direct multi-GPU profiling
	DisableElastic  bool // pin each job to its requested GPU count
	DisableHetero   bool // pin each job to its requested GPU type
	DisablePruning  bool // deploy with the full AP search

	// Warnf, when non-nil, receives scheduler warnings (currently:
	// rigid-mode jobs dropped because no profiled GPU count can run
	// them). Nil discards warnings, keeping simulation runs quiet; the
	// messages never influence decisions.
	Warnf func(format string, args ...any)

	// ladders caches per-signature launch candidate lists; ladderKey
	// fingerprints the inputs they were built from.
	ladders   map[launchSig]*ladder
	ladderKey ladderCacheKey
}

// warnf forwards a warning to Warnf when one is installed.
func (p *ArenaPolicy) warnf(format string, args ...any) {
	if p.Warnf != nil {
		p.Warnf(format, args...)
	}
}

// NewArena returns the paper-default configuration.
func NewArena() *ArenaPolicy {
	return &ArenaPolicy{
		P: 3, D: 3,
		PromoteAfter: 2 * 3600,
		Objective:    ObjThroughput,
	}
}

// Name implements Policy.
func (p *ArenaPolicy) Name() string {
	switch {
	case p.DisablePlanner:
		return "arena-w/o-planner"
	case p.DisableProfiler:
		return "arena-w/o-profiler"
	case p.DisableElastic:
		return "arena-w/o-elastic"
	case p.DisableHetero:
		return "arena-w/o-hetero"
	case p.DisablePruning:
		return "arena-w/o-pruning"
	case p.Objective == ObjDeadline:
		return "arena-ddl"
	case p.Objective == ObjFairness:
		return "arena-fair"
	default:
		return "arena"
	}
}

// PerceivedThr implements Policy: Arena's estimates come from the
// profiled grid proxies; the w/o-planner ablation degrades to the static
// DP view (falling back to the AP estimate only when DP is infeasible on
// every resource, mirroring a manually configured plan).
func (p *ArenaPolicy) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	if p.DisablePlanner {
		// "Assuming jobs are executed with DP" (§5.7): the DP profile
		// where it exists, otherwise the same linear bootstrapped view an
		// SP-aware scheduler would fall back to.
		if t := db.DPThr(w, gpuType, n); t > 0 {
			return t
		}
		return db.SiaEst(w, gpuType, n, 1)
	}
	return db.ArenaEstThr(w, gpuType, n)
}

// ActualThr implements Policy: jobs run the pruned-search plan (§3.6).
func (p *ArenaPolicy) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	if t := db.ArenaActualThr(w, gpuType, n); t > 0 {
		return t
	}
	// Pruned search found nothing for this grid: fall back to full AP
	// (the runtime degrades gracefully to the backend's own search).
	return db.APThr(w, gpuType, n)
}

// ProfilePrepend implements Policy: single-GPU disaggregated grid
// profiling; the w/o-profiler ablation reverts to direct multi-GPU
// measurement, whose contention with in-flight jobs the paper highlights
// (§5.7) — modeled as a far longer ahead-of-time pass.
func (p *ArenaPolicy) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 {
	if p.DisableProfiler {
		return 6 * db.DPProfileWall(w)
	}
	return db.ArenaProfileWall(w)
}

// DeployOverhead implements Policy: space-pruned AP search (§3.6), or the
// full search under the w/o-pruning ablation.
func (p *ArenaPolicy) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	if p.DisablePruning {
		return db.SearchTimeFull(w, gpuType, n)
	}
	if t := db.SearchTimePruned(w, gpuType, n); t > 0 {
		return t
	}
	return db.SearchTimeFull(w, gpuType, n)
}

// freeMap snapshots per-type free capacity for what-if planning.
func freeMap(ctx *Context) map[string]int {
	m := map[string]int{}
	for _, typ := range ctx.Cluster.GPUTypes() {
		m[typ] = ctx.Cluster.FreeGPUs(typ)
	}
	return m
}

// Assign implements Algorithm 1.
func (p *ArenaPolicy) Assign(ctx *Context) Assignment {
	asg := NewAssignment()
	free := freeMap(ctx)
	// Track per-round target sizes of running jobs (after scale ops) and
	// of this round's launches. Sized by the running set: launches are
	// few, and a queue-deep map would cost every round its depth.
	target := make(map[string]Alloc, len(ctx.Running))
	for _, j := range ctx.Running {
		target[j.Trace.ID] = j.Alloc
	}
	var launched []*Job
	depth := 0

	p.promote(ctx)

	// --- Launch phase (LEventHandler, lines 6–16). ---
	queued := launchOrder(ctx.Queued, p.P)
	blockedPrio := p.P + 1
	// The admission window: within one round, a failed launch is a pure
	// function of (signature, free capacity). Free capacity only shrinks
	// while the phase runs — the single exception, a landed launch whose
	// staged victim shrinks moved capacity between types, clears the memo
	// — so jobs repeating an already-failed signature skip the candidate
	// search entirely. Deadline mode scores per-job feasibility (remaining
	// work against the clock), so the memo stays off there.
	var failed map[launchSig]bool
	if p.Objective != ObjDeadline {
		failed = map[launchSig]bool{}
	}
	p.ensureLadders(ctx)
	for _, job := range queued {
		if job.CurPriority > blockedPrio {
			// A higher-priority queue is blocked; later queues must wait
			// (Algorithm 1, line 9). Same-queue jobs may still try — the
			// conditional preemption privilege of §3.5.
			break
		}
		if p.Objective == ObjDeadline && p.hopeless(ctx, job) {
			asg.Drop = append(asg.Drop, job.Trace.ID)
			continue
		}
		if p.DisableElastic && len(p.launchLadder(ctx, job).counts) == 0 {
			// Rigid mode with a request no profiled size can serve on any
			// allowed type: drop the job instead of letting it queue
			// forever and head-of-line-block its priority queue. (Elastic
			// counts are never empty, so only rigid mode can drop here.)
			p.warnf("sched: dropping rigid job %s: no feasible GPU count for request of %d (type %s)",
				job.Trace.ID, job.Trace.ReqGPUs, job.Trace.ReqType)
			asg.Drop = append(asg.Drop, job.Trace.ID)
			continue
		}
		if failed != nil && failed[p.sigOf(job)] {
			// Provably identical failure: a same-signature launch already
			// ran the full search this round and nothing it depends on has
			// grown since. The skip must still lower the blocking bar —
			// Algorithm 1 line 9 blocks on the failed job's priority, not
			// on whether its search was re-run.
			if job.CurPriority < blockedPrio {
				blockedPrio = job.CurPriority
			}
			continue
		}
		depth = 0 // the search depth bounds each launch event (Alg. 1 l.13)
		ok, shrank := p.tryLaunch(ctx, job, free, target, &depth, &asg)
		if ok {
			launched = append(launched, job)
		}
		switch {
		case !ok:
			if failed != nil {
				failed[p.sigOf(job)] = true
			}
			if job.CurPriority < blockedPrio {
				blockedPrio = job.CurPriority
			}
		case shrank && failed != nil:
			// Victim shrinks landed: capacity may have moved onto a type a
			// memoized failure found full. Every memo entry is stale.
			clear(failed)
		}
	}

	// --- Straggler-routing phase (fault-aware extension). ---
	p.routeStragglers(ctx, free, &asg)

	// --- Scale-up phase (InFlightHandler, lines 17–20). ---
	depth = 0
	p.scaleUp(ctx, launched, free, target, &depth, &asg)
	return asg
}

// launchOrder returns the queue in Algorithm 1's launch order: ascending
// CurPriority, then SubmittedAt, ties in queue order — the order a
// stable sort by (CurPriority, SubmittedAt) produces, built in linear
// time. A stable bucket pass groups the jobs by priority (1..maxPrio
// each get a bucket, lower and higher priorities share one bucket per
// side); a bucket is then sorted only if it is not already in order.
// The engine admits jobs in SubmittedAt order, so in a priority bucket
// only requeued jobs (crash restarts, failed moves) are ever out of
// place, and a round without them sorts nothing.
func launchOrder(queued []*Job, maxPrio int) []*Job {
	maxPrio = max(maxPrio, 0)
	bucket := func(j *Job) int {
		return min(max(j.CurPriority, 0), maxPrio+1)
	}
	// start[b] is bucket b's first index in the output.
	start := make([]int, maxPrio+3)
	for _, j := range queued {
		start[bucket(j)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	out := make([]*Job, len(queued))
	next := append([]int(nil), start...)
	for _, j := range queued {
		b := bucket(j)
		out[next[b]] = j
		next[b]++
	}
	less := func(a, b *Job) bool {
		if a.CurPriority != b.CurPriority {
			return a.CurPriority < b.CurPriority
		}
		return a.SubmittedAt < b.SubmittedAt
	}
	for b := 0; b+1 < len(start); b++ {
		seg := out[start[b]:start[b+1]]
		for i := 1; i < len(seg); i++ {
			if less(seg[i], seg[i-1]) {
				sort.SliceStable(seg, func(x, y int) bool { return less(seg[x], seg[y]) })
				break
			}
		}
	}
	return out
}

// routeStragglers migrates running jobs pinned to degraded nodes onto
// healthy capacity of the same shape. A migration keeps the parallelism
// plan (no new search) but pays checkpoint-resume, so it is taken only
// under the same promising-job rule as scaling: the move must pay for
// itself before the job would have finished at its degraded pace.
func (p *ArenaPolicy) routeStragglers(ctx *Context, free map[string]int, asg *Assignment) {
	const slowCut = 0.9 // ignore degradation the resume overhead would dwarf
	running := append([]*Job(nil), ctx.Running...)
	sort.SliceStable(running, func(a, b int) bool {
		return running[a].Trace.ID < running[b].Trace.ID
	})
	for _, j := range running {
		f := j.SlowFactor
		if f <= 0 || f >= slowCut {
			continue
		}
		if j.BusyUntil > ctx.Now {
			continue // mid-reconfiguration; moving again would thrash
		}
		if _, placed := asg.Place[j.Trace.ID]; placed {
			continue // this round already rescales it
		}
		cur := j.Alloc
		// The move frees cur.N and takes cur.N elsewhere: require that
		// much untouched free capacity of the type, on fully healthy
		// nodes, so the migration cannot land back on the straggler.
		if free[cur.GPUType] < cur.N || !ctx.Cluster.CanAllocHealthy(cur.GPUType, cur.N) {
			continue
		}
		thr := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
		if thr <= 0 {
			continue
		}
		tStay := j.RemainingSamples / (thr * f)
		tMove := j.RemainingSamples/thr + CheckpointResume
		if tMove >= tStay {
			continue
		}
		asg.Migrate = append(asg.Migrate, j.Trace.ID)
	}
}

// promote raises the live priority of long-queued jobs (§3.5: "a job
// priority λ is promoted to λ−1 after prolonged queuing").
func (p *ArenaPolicy) promote(ctx *Context) {
	for _, j := range ctx.Queued {
		waited := ctx.Now - j.SubmittedAt
		levels := 0
		if p.PromoteAfter > 0 {
			levels = int(waited / p.PromoteAfter)
		}
		cur := j.Trace.Priority - levels
		if cur < 1 {
			cur = 1
		}
		j.CurPriority = cur
	}
}

// allowedTypes respects the heterogeneity ablation.
func (p *ArenaPolicy) allowedTypes(ctx *Context, job *Job) []string {
	if p.DisableHetero {
		return []string{job.Trace.ReqType}
	}
	return ctx.Cluster.GPUTypes()
}

// allowedCounts respects the elasticity ablation. Without elasticity the
// request is pinned, but snapped up onto the profiled power-of-two grid
// and still raised to the smallest feasible size beyond it — rigid
// schedulers pad requests to the sizes they can actually place rather
// than starving them. Returns nil when no profiled size up to MaxPerJob
// is feasible on any allowed type; the launch loop drops such jobs with
// a warning. (Before the snap, a non-power-of-two request — e.g. 3 —
// probed 3→6→12 entirely off the profiled grid, saw zero perceived
// throughput everywhere, and queued forever while head-of-line-blocking
// its priority queue, silently diverging the w/o-elastic ablation from
// Fig. 17 on such traces.)
func (p *ArenaPolicy) allowedCounts(ctx *Context, job *Job) []int {
	if p.DisableElastic {
		for n := ceilPow2(job.Trace.ReqGPUs); n <= ctx.MaxPerJob; n *= 2 {
			for _, typ := range p.allowedTypes(ctx, job) {
				if p.PerceivedThr(ctx.DB, job.Workload(), typ, n) > 0 {
					return []int{n}
				}
			}
		}
		return nil
	}
	var out []int
	for n := 1; n <= ctx.MaxPerJob; n *= 2 {
		out = append(out, n)
	}
	return out
}

// ceilPow2 returns the smallest power of two ≥ n (minimum 1) — the
// granularity the performance database profiles grids at.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// meetsDeadline checks Eq. 6 for a candidate throughput.
func (p *ArenaPolicy) meetsDeadline(ctx *Context, job *Job, thr float64) bool {
	if p.Objective != ObjDeadline || job.Trace.Deadline <= 0 {
		return true
	}
	finish := ctx.Now + job.RemainingSamples/thr
	return finish <= job.SubmittedAt+job.Trace.Deadline
}

// hopeless reports that no allocation (even ignoring current occupancy)
// can meet the job's deadline — such jobs are dropped (§5.6).
func (p *ArenaPolicy) hopeless(ctx *Context, job *Job) bool {
	if job.Trace.Deadline <= 0 {
		return false
	}
	for _, typ := range p.allowedTypes(ctx, job) {
		for _, n := range p.allowedCounts(ctx, job) {
			thr := p.PerceivedThr(ctx.DB, job.Workload(), typ, n)
			if thr > 0 && p.meetsDeadline(ctx, job, thr) {
				return false
			}
		}
	}
	return true
}

// tryLaunch finds the best allocation for a queued job under the
// remaining free capacity, invoking bounded scale-down of in-flight jobs
// when the cluster is full (GetOptimalScaleDown). Victim shrinks are
// speculative: they exist only to free capacity for this launch, so they
// are staged and rolled back — free and target restored, the asg.Place
// entries returned to their pre-call state — if bestUnderFree still
// fails at the depth bound. (They used to be applied unconditionally,
// so a launch that never landed still cost every victim half its GPUs
// for nothing.)
//
// shrank reports that the launch landed *and* staged victim shrinks with
// it — the one case where free capacity can grow on a type other than
// the launch's own, which invalidates the launch phase's failure memo.
// A failed call reverts completely, so it never sets shrank.
func (p *ArenaPolicy) tryLaunch(ctx *Context, job *Job, free map[string]int, target map[string]Alloc, depth *int, asg *Assignment) (ok, shrank bool) {
	if alloc, ok := p.bestUnderFree(ctx, job, free); ok {
		asg.Place[job.Trace.ID] = alloc
		target[job.Trace.ID] = alloc
		free[alloc.GPUType] -= alloc.N
		return true, false
	}
	// Cluster full: iteratively scale down the in-flight job that loses
	// the least throughput per freed GPU, up to the search depth.
	type shrink struct {
		victim    *Job
		old       Alloc // target before this shrink
		prevPlace Alloc // asg.Place entry before this shrink, if any
		hadPlace  bool  // (an earlier launch may have already rescaled it)
	}
	var staged []shrink
	for *depth < p.D {
		victim, newAlloc, ok := p.optimalScaleDown(ctx, free, target)
		if !ok {
			break
		}
		*depth++
		old := target[victim.Trace.ID]
		prev, had := asg.Place[victim.Trace.ID]
		staged = append(staged, shrink{victim: victim, old: old, prevPlace: prev, hadPlace: had})
		target[victim.Trace.ID] = newAlloc
		asg.Place[victim.Trace.ID] = newAlloc
		free[old.GPUType] += old.N
		free[newAlloc.GPUType] -= newAlloc.N
		if alloc, ok := p.bestUnderFree(ctx, job, free); ok {
			asg.Place[job.Trace.ID] = alloc
			target[job.Trace.ID] = alloc
			free[alloc.GPUType] -= alloc.N
			return true, true
		}
	}
	// The enabling launch never landed: revert the staged shrinks in
	// reverse order so the round's capacity and targets are exactly as if
	// the search had not run.
	for i := len(staged) - 1; i >= 0; i-- {
		s := staged[i]
		cur := target[s.victim.Trace.ID]
		free[cur.GPUType] += cur.N
		free[s.old.GPUType] -= s.old.N
		target[s.victim.Trace.ID] = s.old
		if s.hadPlace {
			asg.Place[s.victim.Trace.ID] = s.prevPlace
		} else {
			delete(asg.Place, s.victim.Trace.ID)
		}
	}
	return false, false
}

// bestUnderFree picks the launch allocation maximizing Eq. 5's cluster
// objective: admitting a queued job adds its full throughput, so the
// launch size stops at the efficiency knee — growth beyond it is left to
// the scale-up phase, which weighs it against admitting further jobs.
// Deadline mode additionally requires Eq. 6. The candidates are the
// signature's cached ladder (knee-truncated, see score.go); only the
// per-round checks — free capacity and the deadline — run here.
func (p *ArenaPolicy) bestUnderFree(ctx *Context, job *Job, free map[string]int) (Alloc, bool) {
	var best Alloc
	var bestDensity float64
	found := false
	for _, c := range p.launchLadder(ctx, job).cands {
		if c.n > free[c.typ] || !p.meetsDeadline(ctx, job, c.thr) {
			continue
		}
		density := c.thr / float64(c.n)
		if !found || density > bestDensity {
			best, bestDensity, found = Alloc{GPUType: c.typ, N: c.n}, density, true
		}
	}
	return best, found
}

// optimalScaleDown locates the running job whose halving frees GPUs at
// the lowest throughput cost while staying executable (§3.5: "Arena
// scales down jobs with excessive resources but limited performance").
func (p *ArenaPolicy) optimalScaleDown(ctx *Context, free map[string]int, target map[string]Alloc) (*Job, Alloc, bool) {
	var bestJob *Job
	var bestAlloc Alloc
	bestCost := math.MaxFloat64
	for _, j := range ctx.Running {
		if p.DisableElastic {
			continue
		}
		cur := target[j.Trace.ID]
		if cur.N < 2 {
			continue
		}
		half := cur.N / 2
		thrCur := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
		thrHalf := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, half)
		if thrHalf <= 0 { // would become non-executable: forbidden (§3.5)
			continue
		}
		if !p.meetsDeadline(ctx, j, thrHalf) {
			continue
		}
		cost := (thrCur - thrHalf) / float64(cur.N-half)
		if cost < bestCost {
			bestJob, bestAlloc, bestCost = j, Alloc{GPUType: cur.GPUType, N: half}, cost
		}
	}
	if bestJob == nil {
		return nil, Alloc{}, false
	}
	return bestJob, bestAlloc, true
}

// scaleUp gives idle GPUs to the in-flight jobs — the running ones and
// this round's launches — with the best marginal gain
// (GetOptimalScaleUp), within the remaining search depth. Under the
// fairness objective the marginal gain is weighted by remaining work, so
// the laggard jobs scale first (Eq. 7's min-max finish time).
func (p *ArenaPolicy) scaleUp(ctx *Context, launched []*Job, free map[string]int, target map[string]Alloc, depth *int, asg *Assignment) {
	if p.DisableElastic {
		return
	}
	jobs := make([]*Job, 0, len(ctx.Running)+len(launched))
	jobs = append(append(jobs, ctx.Running...), launched...)
	// IDs are unique among live jobs, so the order is total.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Trace.ID < jobs[b].Trace.ID })

	*depth += DoubleByGain(jobs, p.D-*depth, target, free, asg.Place, func(j *Job, cur Alloc) (float64, bool) {
		return p.scaleGain(ctx, j, cur)
	})
}

// scaleGain scores one scale-up candidate at its current target size:
// the marginal perceived gain per held GPU of doubling it, with the
// static eligibility gates (cap, reconfiguration cooldown, the 1.02
// meaningful-gain floor, the §3.5 promising-job rule and the fairness
// weighting) applied. ok=false marks an ineligible candidate. The free-
// capacity check is deliberately not here: it is the only input that
// moves between selections without the candidate itself being doubled.
func (p *ArenaPolicy) scaleGain(ctx *Context, j *Job, cur Alloc) (float64, bool) {
	if cur.IsZero() || cur.N*2 > ctx.MaxPerJob {
		return 0, false
	}
	// Rescaling a reconfiguring job again would thrash; fresh
	// launches (still queued) are free to size up.
	if j.Running() && j.BusyUntil > ctx.Now {
		return 0, false
	}
	double := cur.N * 2
	thrCur := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
	thrNew := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, double)
	if thrNew <= thrCur*1.02 {
		return 0, false // no meaningful gain
	}
	// Promising jobs only (§3.5): the restart (checkpoint-resume +
	// search tail) must pay for itself before the job finishes.
	if j.Running() {
		restart := CheckpointResume + 0.2*p.DeployOverhead(ctx.DB, j.Workload(), cur.GPUType, double)
		tCur := j.RemainingSamples / thrCur
		tNew := j.RemainingSamples/thrNew + restart
		if tNew >= tCur {
			return 0, false
		}
	}
	gain := (thrNew - thrCur) / float64(cur.N)
	if p.Objective == ObjFairness {
		gain *= j.RemainingSamples / math.Max(thrCur, 1e-9)
	}
	return gain, true
}
