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

	// ladders caches per-signature launch candidate lists and tables in
	// build order; ladderOf maps a signature to 1 + its index there (the
	// value a job's ladderHint holds); ladderKey fingerprints the inputs
	// they were built from, and types is the cluster type order their
	// tables and candidates index.
	ladders   []*ladder
	ladderOf  map[launchSig]uint32
	ladderKey ladderCacheKey
	types     []string
	// failEpoch is the launch phase's failure-memo generation: bumping it
	// forgets every failure stamped on a ladder (see score.go).
	failEpoch uint64

	// The launch FIFOs (see fifo.go): every FIFO of the current ladders,
	// their entries counted live and dead, and the Changes and round they
	// hold the queue of (nil: a context without Changes).
	fifos   []*launchFIFO
	entries int
	changes *QueueChanges
	round   uint64
	// merge is the launch phase's heap buffer, kept between rounds:
	// allocating it every round cost about 2% of a sim-helios-light round
	// (shallow queue, 2-vCPU host).
	merge mergeHeap

	// The round's targets and scale-down costs (see optimalScaleDown),
	// kept between rounds like merge: Assign refills ts and marks the
	// costs unfilled before it reads either.
	ts         Targets
	downCost   []float64
	downFilled bool
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

// Assign implements Algorithm 1.
func (p *ArenaPolicy) Assign(ctx *Context) Assignment {
	p.ensureLadders(ctx)
	p.syncQueue(ctx)
	// The round's free capacity and targets: the running set's, then
	// each launch's (see Targets).
	ts := &p.ts
	ts.Reset(ctx, p.types)
	asg := NewAssignment()
	p.downFilled = false
	depth := 0

	// --- Launch phase (LEventHandler, lines 6–16). ---
	p.launch(ctx, &asg, func(job *Job, lad *ladder) (ok, shrank bool) {
		depth = 0 // the search depth bounds each launch event (Alg. 1 l.13)
		return p.tryLaunch(ctx, job, lad, ts, &depth, &asg)
	})

	// --- Straggler-routing phase (fault-aware extension). ---
	p.routeStragglers(ctx, ts, &asg)

	// --- Scale-up phase (InFlightHandler, lines 17–20). ---
	depth = 0
	p.scaleUp(ctx, ts, &depth, &asg)
	return asg
}

// launch runs the launch phase over the queue in Algorithm 1's launch
// order — ascending live priority, then SubmittedAt, then QueueSeq —
// merged from the FIFO heads, and returns the final blocking priority.
// attempt tries one job's launch on its ladder (tryLaunch, in Assign)
// and reports whether it landed and whether it staged victim shrinks.
//
// The admission window: within one round, a failed launch is a pure
// function of (signature, free capacity). Free capacity only shrinks
// while the phase runs — the single exception, a landed launch whose
// staged victim shrinks moved capacity between types, clears the memo —
// so jobs repeating an already-failed signature would fail too and are
// not visited: the failure parks the FIFO, and every other FIFO of the
// signature parks when it surfaces. Parked FIFOs rejoin the merge after
// the current position when the memo clears. Skipping them cannot move
// the blocking bar: launch order never lowers the live priority, so a
// parked job's priority is at least that of the failure that parked it,
// which already lowered the bar that far. Deadline mode scores per-job
// feasibility (remaining work against the clock), so the memo stays off
// there. The memo is a stamp on the signature's ladder; bumping
// failEpoch clears it.
func (p *ArenaPolicy) launch(ctx *Context, asg *Assignment, attempt func(job *Job, lad *ladder) (ok, shrank bool)) int {
	blockedPrio := p.P + 1
	memo := p.Objective != ObjDeadline
	p.failEpoch++
	h := p.merge[:0]
	var parked []*launchFIFO
	for _, f := range p.fifos {
		f.next = f.head
		if p.seek(f) {
			h.push(p.keyOf(ctx.Now, f, f.q[f.next]))
		}
	}
	for len(h) > 0 {
		top := h[0]
		if top.prio > blockedPrio {
			// A higher-priority queue is blocked; later queues must wait
			// (Algorithm 1, line 9). Same-queue jobs may still try — the
			// conditional preemption privilege of §3.5.
			break
		}
		f := top.f
		job, lad := f.q[f.next].job, f.lad
		switch {
		case p.Objective == ObjDeadline && p.hopeless(ctx, job, lad):
			asg.Drop = append(asg.Drop, job)
		case p.DisableElastic && len(lad.counts) == 0:
			// Rigid mode with a request no profiled size can serve on any
			// allowed type: drop the job instead of letting it queue
			// forever and head-of-line-block its priority queue. (Elastic
			// counts are never empty, so only rigid mode can drop here.)
			asg.Drop = append(asg.Drop, job)
		case memo && lad.failedAt == p.failEpoch:
			// Provably identical failure: a same-signature launch already
			// ran the full search this round and nothing it depends on has
			// grown since. Parked below.
		default:
			ok, shrank := attempt(job, lad)
			switch {
			case !ok:
				blockedPrio = min(blockedPrio, top.prio)
				if memo {
					lad.failedAt = p.failEpoch
				}
			case shrank && memo:
				// Victim shrinks landed: capacity may have moved onto a
				// type a memoized failure found full. Every memo entry is
				// stale, and the parked FIFOs rejoin.
				p.failEpoch++
				for _, g := range parked {
					if p.rejoin(ctx.Now, g, top) {
						h.push(p.keyOf(ctx.Now, g, g.q[g.next]))
					}
				}
				parked = parked[:0]
			}
		}
		if memo && lad.failedAt == p.failEpoch {
			// The FIFO's later jobs share the failed signature.
			h.pop()
			parked = append(parked, f)
			continue
		}
		f.next++
		if p.seek(f) {
			h[0] = p.keyOf(ctx.Now, f, f.q[f.next])
			h.down()
		} else {
			h.pop()
		}
	}
	clear(h[:cap(h)])
	p.merge = h[:0]
	return blockedPrio
}

// routeStragglers migrates running jobs pinned to degraded nodes onto
// healthy capacity of the same shape. A migration keeps the parallelism
// plan (no new search) but pays checkpoint-resume, so it is taken only
// under the same promising-job rule as scaling: the move must pay for
// itself before the job would have finished at its degraded pace.
func (p *ArenaPolicy) routeStragglers(ctx *Context, ts *Targets, asg *Assignment) {
	const slowCut = 0.9 // ignore degradation the resume overhead would dwarf
	var slow []*Job
	for _, j := range ctx.Running {
		if f := j.SlowFactor; f <= 0 || f >= slowCut {
			continue
		}
		slow = append(slow, j)
	}
	sort.SliceStable(slow, func(a, b int) bool {
		return slow[a].Trace.ID < slow[b].Trace.ID
	})
	for _, j := range slow {
		f := j.SlowFactor
		if j.BusyUntil > ctx.Now {
			continue // mid-reconfiguration; moving again would thrash
		}
		if _, placed := asg.Place[j]; placed {
			continue // this round already rescales it
		}
		cur := j.Alloc
		// The move frees cur.N and takes cur.N elsewhere: require that
		// much untouched free capacity of the type, on fully healthy
		// nodes, so the migration cannot land back on the straggler.
		if ts.FreeOf(cur.GPUType) < cur.N || !ctx.Cluster.CanAllocHealthy(cur.GPUType, cur.N) {
			continue
		}
		thr := p.thrOf(ctx, p.launchLadder(ctx, j), cur.GPUType, cur.N)
		if thr <= 0 {
			continue
		}
		tStay := j.RemainingSamples / (thr * f)
		tMove := j.RemainingSamples/thr + CheckpointResume
		if tMove >= tStay {
			continue
		}
		asg.Migrate = append(asg.Migrate, j)
	}
}

// allowedTypes respects the heterogeneity ablation: the requested type
// alone, or every type of the cluster ensureLadders last saw.
func (p *ArenaPolicy) allowedTypes(job *Job) []string {
	if p.DisableHetero {
		return []string{job.Trace.ReqType}
	}
	return p.types
}

// allowedCounts respects the elasticity ablation. Without elasticity the
// request is pinned, but snapped up onto the profiled power-of-two grid
// and still raised to the smallest feasible size beyond it — rigid
// schedulers pad requests to the sizes they can actually place rather
// than starving them. Returns nil when no profiled size up to the
// database's MaxN is feasible on any allowed type; the launch loop then
// lists the job in Assignment.Drop. (Before the snap, a non-power-of-two
// request — e.g. 3 — probed 3→6→12 entirely off the profiled grid, saw
// zero perceived throughput everywhere, and queued forever while
// head-of-line-blocking its priority queue, silently diverging the
// w/o-elastic ablation from Fig. 17 on such traces.)
func (p *ArenaPolicy) allowedCounts(ctx *Context, job *Job) []int {
	if p.DisableElastic {
		for n := ceilPow2(job.Trace.ReqGPUs); n <= ctx.DB.MaxN; n *= 2 {
			for _, typ := range p.allowedTypes(job) {
				if p.PerceivedThr(ctx.DB, job.Workload(), typ, n) > 0 {
					return []int{n}
				}
			}
		}
		return nil
	}
	var out []int
	for n := 1; n <= ctx.DB.MaxN; n *= 2 {
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
// can meet the job's deadline — such jobs are dropped (§5.6). lad is the
// job's ladder: its counts are allowedCounts, its table the throughputs.
func (p *ArenaPolicy) hopeless(ctx *Context, job *Job, lad *ladder) bool {
	if job.Trace.Deadline <= 0 {
		return false
	}
	for _, typ := range p.allowedTypes(job) {
		for _, n := range lad.counts {
			thr := p.thrOf(ctx, lad, typ, n)
			if thr > 0 && p.meetsDeadline(ctx, job, thr) {
				return false
			}
		}
	}
	return true
}

// tryLaunch finds the best allocation for a queued job under the
// remaining free capacity, invoking bounded scale-down of in-flight jobs
// when the cluster is full (GetOptimalScaleDown). lad is the job's
// ladder. Victim shrinks are speculative: they exist only to free
// capacity for this launch, so they are staged in ts and published to
// asg.Place only when the launch lands. If bestUnderFree still fails at
// the depth bound they are rolled back — free capacity and targets
// restored — and the assignment never saw them: a launch that never
// lands costs no victim its GPUs.
//
// shrank reports that the launch landed *and* staged victim shrinks with
// it — the one case where free capacity can grow on a type other than
// the launch's own, which invalidates the launch phase's failure memo.
// A failed call reverts completely, so it never sets shrank.
//
// Every target change of a running job goes through retarget, which
// keeps the round's scale-down costs (see optimalScaleDown) current.
func (p *ArenaPolicy) tryLaunch(ctx *Context, job *Job, lad *ladder, ts *Targets, depth *int, asg *Assignment) (ok, shrank bool) {
	if c, ok := p.bestUnderFree(ctx, job, lad, ts.Free); ok {
		asg.Place[job] = ts.Launch(job, c.t, c.n)
		return true, false
	}
	// Cluster full: iteratively scale down the in-flight job that loses
	// the least throughput per freed GPU, up to the search depth.
	type shrink struct {
		victim int   // index in ctx.Running
		t      int   // its type index
		old    Alloc // target before this shrink
	}
	var staged []shrink
	for *depth < p.D {
		i, half, ok := p.optimalScaleDown(ctx, ts)
		if !ok {
			break
		}
		*depth++
		old := ts.Target[i]
		t := ts.TypeIndex(old.GPUType)
		staged = append(staged, shrink{victim: i, t: t, old: old})
		p.retarget(ctx, ts, i, half)
		ts.Free[t] += old.N - half.N
		if c, ok := p.bestUnderFree(ctx, job, lad, ts.Free); ok {
			for _, s := range staged {
				asg.Place[ctx.Running[s.victim]] = ts.Target[s.victim]
			}
			asg.Place[job] = ts.Launch(job, c.t, c.n)
			return true, true
		}
	}
	// The enabling launch never landed: revert the staged shrinks in
	// reverse order so the round's capacity and targets are exactly as if
	// the search had not run.
	for k := len(staged) - 1; k >= 0; k-- {
		s := staged[k]
		ts.Free[s.t] -= s.old.N - ts.Target[s.victim].N
		p.retarget(ctx, ts, s.victim, s.old)
	}
	return false, false
}

// bestUnderFree picks the launch allocation maximizing Eq. 5's cluster
// objective: admitting a queued job adds its full throughput, so the
// launch size stops at the efficiency knee — growth beyond it is left to
// the scale-up phase, which weighs it against admitting further jobs.
// Deadline mode additionally requires Eq. 6. The candidates are the job's
// cached ladder (knee-truncated, see score.go); only the per-round checks
// — free capacity by type index, and the deadline — run here.
func (p *ArenaPolicy) bestUnderFree(ctx *Context, job *Job, lad *ladder, free []int) (ladderCand, bool) {
	var best ladderCand
	var bestDensity float64
	found := false
	for _, c := range lad.cands {
		if c.n > free[c.t] || !p.meetsDeadline(ctx, job, c.thr) {
			continue
		}
		density := c.thr / float64(c.n)
		if !found || density > bestDensity {
			best, bestDensity, found = c, density, true
		}
	}
	return best, found
}

// optimalScaleDown locates the running job whose halving frees GPUs at
// the lowest throughput cost while staying executable (§3.5: "Arena
// scales down jobs with excessive resources but limited performance"),
// returning its index in ctx.Running and its halved allocation. Ties go
// to the first job in ctx.Running.
//
// The costs come from p.downCost, indexed like ctx.Running: the round's
// first call fills it from the round's targets and sets downFilled, and
// retarget keeps each entry current as the launch phase moves targets,
// so later calls compare floats only. The slice is kept between rounds;
// Assign clears downFilled, so a round never reads the last one's costs.
func (p *ArenaPolicy) optimalScaleDown(ctx *Context, ts *Targets) (int, Alloc, bool) {
	if !p.downFilled {
		p.downCost = resize(p.downCost, len(ctx.Running))
		for i, j := range ctx.Running {
			p.downCost[i] = p.halvingCost(ctx, j, ts.Target[i])
		}
		p.downFilled = true
	}
	best, bestCost := -1, math.MaxFloat64
	for i, c := range p.downCost {
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	if best < 0 {
		return -1, Alloc{}, false
	}
	cur := ts.Target[best]
	return best, Alloc{GPUType: cur.GPUType, N: cur.N / 2}, true
}

// halvingCost is the throughput running job j loses per GPU freed by
// halving it from cur, or math.MaxFloat64 when it may not shrink: rigid
// mode, a single GPU, a half that would be non-executable (forbidden,
// §3.5) or one that misses the job's deadline.
func (p *ArenaPolicy) halvingCost(ctx *Context, j *Job, cur Alloc) float64 {
	if p.DisableElastic || cur.N < 2 {
		return math.MaxFloat64
	}
	half := cur.N / 2
	lad := p.launchLadder(ctx, j)
	thrCur := p.thrOf(ctx, lad, cur.GPUType, cur.N)
	thrHalf := p.thrOf(ctx, lad, cur.GPUType, half)
	if thrHalf <= 0 || !p.meetsDeadline(ctx, j, thrHalf) {
		return math.MaxFloat64
	}
	return (thrCur - thrHalf) / float64(cur.N-half)
}

// retarget moves ctx.Running[i]'s round target to a and rewrites its
// entry in the round's scale-down costs, which optimalScaleDown has
// filled by the time any target moves.
func (p *ArenaPolicy) retarget(ctx *Context, ts *Targets, i int, a Alloc) {
	ts.Target[i] = a
	p.downCost[i] = p.halvingCost(ctx, ctx.Running[i], a)
}

// scaleUp gives idle GPUs to the in-flight jobs — the running ones and
// this round's launches — with the best marginal gain
// (GetOptimalScaleUp), within the remaining search depth; equal gains go
// to the lower job ID. Under the fairness objective the marginal gain is
// weighted by remaining work, so the laggard jobs scale first (Eq. 7's
// min-max finish time).
func (p *ArenaPolicy) scaleUp(ctx *Context, ts *Targets, depth *int, asg *Assignment) {
	if p.DisableElastic {
		return
	}
	*depth += DoubleByGain(ts, p.D-*depth, true, asg.Place, func(i int, cur Alloc) (float64, bool) {
		return p.scaleGain(ctx, ts.Jobs[i], cur)
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
	if cur.IsZero() || cur.N*2 > ctx.DB.MaxN {
		return 0, false
	}
	// Rescaling a reconfiguring job again would thrash; fresh
	// launches (still queued) are free to size up.
	if j.Running() && j.BusyUntil > ctx.Now {
		return 0, false
	}
	double := cur.N * 2
	lad := p.launchLadder(ctx, j)
	thrCur := p.thrOf(ctx, lad, cur.GPUType, cur.N)
	thrNew := p.thrOf(ctx, lad, cur.GPUType, double)
	if thrNew <= thrCur*1.02 {
		return 0, false // no meaningful gain
	}
	// Promising jobs only (§3.5): the restart (checkpoint-resume +
	// search tail) must pay for itself before the job finishes.
	if j.Running() {
		restart := CheckpointResume + 0.2*p.deployOf(ctx, lad, cur.GPUType, double)
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
