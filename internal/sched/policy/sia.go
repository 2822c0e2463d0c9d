package policy

import (
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// Sia jointly optimizes GPU count *and* type (a greedy contention-aware
// stand-in for its ILP goodput solver, §5.1). Its knowledge is the
// bootstrapped linear estimate of §2.3 — 1-GPU profiles scaled by the GPU
// count, with the precision knob η — refined online by the throughputs of
// configurations it has actually run (Fig. 4(b)'s refinement loop).
//
// The linear estimate perceives *no diminishing returns*: the marginal
// gain of doubling any job stays constant, so whenever idle capacity
// exists Sia inflates allocations whose real marginal value has collapsed
// — the §2.2 Case#2 overestimation. Under bursts this throttles the
// cluster (Fig. 11's annotation ❶).
type Sia struct {
	// Eta is the §2.3 precision knob: allocations up to 2^(η−1) GPUs use
	// precise profiles, the rest extrapolate linearly. η=1 is stock Sia.
	Eta int
	// DisableRefinement turns off the online observation loop so the η
	// knob alone controls estimate precision (§2.3's controlled study).
	DisableRefinement bool

	// ts is the round's targets, kept between rounds (sched.Targets).
	ts sched.Targets
}

// siaScaleGain gates the doubling of a job's GPU count: only a perceived
// throughput gain above this factor grows it.
const siaScaleGain = 1.4

// NewSia returns stock Sia (η = 1).
func NewSia() *Sia { return &Sia{Eta: 1} }

// Name implements sched.Policy.
func (s *Sia) Name() string { return "sia" }

// perceived returns the online-refined estimate when available, else the
// bootstrapped linear one.
func (s *Sia) perceived(db *perfdb.DB, w model.Workload, typ string, n int) float64 {
	if !s.DisableRefinement {
		if obs := db.ObservedThr(w, typ, n); obs > 0 {
			return obs
		}
	}
	return db.SiaEst(w, typ, n, s.Eta)
}

// Assign admits queued jobs at their smallest perceived-feasible size on
// the best type, then pours idle capacity into the jobs with the highest
// perceived marginal goodput — which the linear estimates systematically
// overstate for large allocations.
func (s *Sia) Assign(ctx *sched.Context) sched.Assignment {
	asg := sched.NewAssignment()
	// The round's free capacity and targets, by type and job index: the
	// running set in order, then each admission. Growth breaks equal
	// gains by that index, so ties decide deterministically.
	ts := &s.ts
	ts.Reset(ctx, ctx.Cluster.GPUTypes())

	// Admission: the smallest perceived-feasible size per type, provided
	// it fits free capacity, on the type with the best density (goodput
	// of admitting a job always beats growing one).
	//
	// That (minN, thr) table is precomputed per workload once per round —
	// it is fixed within a round; observations land between rounds, which
	// is why it cannot live longer — and failed workloads are memoized:
	// admission only ever shrinks free capacity, so a workload that found
	// no feasible type cannot succeed later in the same round.
	types := ts.Types
	type minCand struct {
		minN int
		thr  float64
	}
	table := map[model.Workload][]minCand{}
	failed := map[model.Workload]bool{}
	for _, job := range ctx.Queued {
		w := job.Trace.Workload
		if failed[w] {
			continue
		}
		cands, ok := table[w]
		if !ok {
			cands = make([]minCand, len(types))
			for ti, typ := range types {
				for n := 1; n <= ctx.MaxPerJob; n *= 2 {
					if thr := s.perceived(ctx.DB, w, typ, n); thr > 0 {
						cands[ti] = minCand{minN: n, thr: thr}
						break
					}
				}
			}
			table[w] = cands
		}
		best := -1
		var bestThr float64
		for ti := range types {
			c := cands[ti]
			if c.minN == 0 || c.minN > ts.Free[ti] {
				continue
			}
			if c.thr/float64(c.minN) > bestThr {
				best, bestThr = ti, c.thr/float64(c.minN)
			}
		}
		if best < 0 {
			failed[w] = true
		} else {
			asg.Place[job] = ts.Launch(job, best, cands[best].minN)
		}
	}

	// Growth: repeatedly double the job with the best perceived marginal
	// gain per added GPU. With linear estimates the marginal never decays,
	// so growth continues while capacity lasts.
	sched.DoubleByGain(ts, 32, false, asg.Place, func(i int, cur sched.Alloc) (float64, bool) {
		return s.growthGain(ctx, ts.Jobs[i], cur)
	})
	return asg
}

// growthGain scores one growth candidate; see ElasticFlow.growthGain —
// both feed sched.DoubleByGain, each with its own perceived table and
// threshold.
func (s *Sia) growthGain(ctx *sched.Context, job *sched.Job, cur sched.Alloc) (float64, bool) {
	if cur.N*2 > ctx.MaxPerJob {
		return 0, false
	}
	if job.Running() && job.BusyUntil > ctx.Now {
		return 0, false
	}
	thrCur := s.perceived(ctx.DB, job.Workload(), cur.GPUType, cur.N)
	thrNew := s.perceived(ctx.DB, job.Workload(), cur.GPUType, cur.N*2)
	if thrCur <= 0 || thrNew <= thrCur*siaScaleGain {
		return 0, false
	}
	return (thrNew - thrCur) / float64(cur.N), true
}

// PerceivedThr implements sched.Policy.
func (s *Sia) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return s.perceived(db, w, gpuType, n)
}

// ActualThr implements sched.Policy: AP execution; the simulator records
// the observation back into the database, closing Sia's refinement loop.
func (s *Sia) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	thr := db.APThr(w, gpuType, n)
	if thr > 0 && !s.DisableRefinement {
		db.Observe(w, gpuType, n, thr)
	}
	return thr
}

// ProfilePrepend implements sched.Policy: the 1-GPU bootstrap profile.
func (s *Sia) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 {
	return db.SiaProfileWall(w)
}

// DeployOverhead implements sched.Policy: full AP search per deployment.
func (s *Sia) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return db.SearchTimeFull(w, gpuType, n)
}
