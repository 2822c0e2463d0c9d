// Package schedtest checks the structural invariants every policy's
// Assignment must satisfy, independent of which policy produced it or
// what it optimizes. The simulator applies assignments defensively
// (infeasible placements simply stay queued), so a policy bug that
// over-commits capacity or places nonsense does not crash a run — it
// silently warps results. These checks turn such bugs into test
// failures at the round that produced them.
//
// The invariants, against the round's pre-apply snapshot:
//
//   - Capacity: per GPU type, placements never exceed snapshot free
//     capacity plus whatever the same assignment frees (running jobs
//     that shrink, move away, or release). The balance may be spent in
//     any order — the engine applies shrinks first — but must end ≥ 0.
//   - Identity: every Place / Drop / Migrate id names a job in the
//     round's Queued or Running sets; no job is placed twice (Drop and
//     Migrate carry no duplicates, and neither overlaps Place/Drop in
//     a contradictory way).
//   - Shape: placements are at least one GPU on a known type; a zero
//     Alloc (release) is only meaningful for running jobs.
//   - Rigidity (opt-in): rigid policies place only profiled
//     power-of-two counts.
//   - Migration: every Migrate not superseded by a rescale targets a
//     running job with healthy capacity to land on — the engine
//     re-allocates the same shape, so proposing a move without a
//     healthy destination would bounce the job back to the queue.
package schedtest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// Options selects the opt-in invariants.
type Options struct {
	// RequirePow2 asserts every placed GPU count is a power of two —
	// the grid granularity rigid-mode policies must stay on.
	RequirePow2 bool
	// Profiled, when non-nil, asserts every placement (workload, type,
	// count) is one the checked policy could actually know about.
	Profiled func(w model.Workload, gpuType string, n int) bool
}

// Check validates one round's assignment against its snapshot context
// and returns a descriptive error listing every violated invariant.
func Check(ctx *sched.Context, asg sched.Assignment, opts Options) error {
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	queued := map[string]*sched.Job{}
	for _, j := range ctx.Queued {
		queued[j.Trace.ID] = j
	}
	running := map[string]*sched.Job{}
	for _, j := range ctx.Running {
		running[j.Trace.ID] = j
	}
	known := func(id string) bool {
		_, q := queued[id]
		_, r := running[id]
		return q || r
	}

	// Capacity balance per type: snapshot free, plus what running jobs'
	// re-places and releases free, minus what placements consume.
	types := map[string]bool{}
	balance := map[string]int{}
	for _, typ := range ctx.Cluster.GPUTypes() {
		types[typ] = true
		balance[typ] = ctx.Cluster.FreeGPUs(typ)
	}
	// Iterate placements in sorted id order: fail messages end up in the
	// returned error, so map-range order would make the report (and any
	// test asserting on it) differ run to run.
	placeIDs := make([]string, 0, len(asg.Place))
	for id := range asg.Place {
		placeIDs = append(placeIDs, id)
	}
	sort.Strings(placeIDs)
	for _, id := range placeIDs {
		target := asg.Place[id]
		j, isRunning := running[id]
		if !isRunning {
			var isQueued bool
			if j, isQueued = queued[id]; !isQueued {
				fail("Place[%s]: unknown job id", id)
				continue
			}
		}
		if target.IsZero() {
			if !isRunning {
				fail("Place[%s]: zero Alloc for a queued job (release of nothing)", id)
			} else {
				balance[j.Alloc.GPUType] += j.Alloc.N
			}
			continue
		}
		if target.N < 1 {
			fail("Place[%s]: %d GPUs", id, target.N)
			continue
		}
		if !types[target.GPUType] {
			fail("Place[%s]: unknown GPU type %q", id, target.GPUType)
			continue
		}
		if opts.RequirePow2 && target.N&(target.N-1) != 0 {
			fail("Place[%s]: %d GPUs is not a power of two", id, target.N)
		}
		if opts.Profiled != nil && !opts.Profiled(j.Workload(), target.GPUType, target.N) {
			fail("Place[%s]: unprofiled placement %d× %s for %v", id, target.N, target.GPUType, j.Workload())
		}
		if isRunning {
			balance[j.Alloc.GPUType] += j.Alloc.N
		}
		balance[target.GPUType] -= target.N
	}
	for _, typ := range ctx.Cluster.GPUTypes() {
		if balance[typ] < 0 {
			fail("type %s over-committed by %d GPUs (snapshot free %d)",
				typ, -balance[typ], ctx.Cluster.FreeGPUs(typ))
		}
	}

	// Drop: no duplicates, no overlap with Place, queued targets only.
	dropped := map[string]bool{}
	for _, id := range asg.Drop {
		if dropped[id] {
			fail("Drop: %s listed twice", id)
			continue
		}
		dropped[id] = true
		if _, placed := asg.Place[id]; placed {
			fail("%s both placed and dropped", id)
		}
		if !known(id) {
			fail("Drop: unknown job id %s", id)
		} else if _, q := queued[id]; !q {
			fail("Drop: %s is not queued", id)
		}
	}

	// Migrate: no duplicates, running targets, healthy destination.
	migrated := map[string]bool{}
	for _, id := range asg.Migrate {
		if migrated[id] {
			fail("Migrate: %s listed twice", id)
			continue
		}
		migrated[id] = true
		if dropped[id] {
			fail("%s both dropped and migrated", id)
		}
		if !known(id) {
			fail("Migrate: unknown job id %s", id)
			continue
		}
		if _, placed := asg.Place[id]; placed {
			continue // a rescale supersedes the migration; engine ignores it
		}
		j, isRunning := running[id]
		if !isRunning {
			fail("Migrate: %s is not running", id)
			continue
		}
		if !ctx.Cluster.CanAllocHealthy(j.Alloc.GPUType, j.Alloc.N) {
			fail("Migrate: %s has no healthy %d× %s destination", id, j.Alloc.N, j.Alloc.GPUType)
		}
	}

	if len(violations) > 0 {
		return fmt.Errorf("schedtest: %s", strings.Join(violations, "; "))
	}
	return nil
}

// Wrap returns a Policy delegating to p that fails t on the first round
// whose assignment violates the invariants. Drop it into any simulator
// config to turn a whole run into a property test.
func Wrap(t testing.TB, p sched.Policy, opts Options) sched.Policy {
	return &checked{t: t, p: p, opts: opts}
}

// MatchRebuilt returns a Policy that decides with fed and, every round,
// also runs shadow on a copy of the context without Changes, so a policy
// that keeps queue state across rounds rebuilds it from Queued there; t
// fails on the first round whose two assignments differ. fed and shadow
// must be two instances of one configuration.
func MatchRebuilt(t testing.TB, fed, shadow sched.Policy) sched.Policy {
	return &rebuilt{Policy: fed, t: t, shadow: shadow}
}

type rebuilt struct {
	sched.Policy
	t      testing.TB
	shadow sched.Policy
}

// MatchDropped returns a Policy that decides with fed and, every round,
// also runs shadow after zeroing every unexported field of *shadow — the
// caches and kept buffers a policy carries between rounds — so shadow
// decides from its exported configuration and the round's context
// alone; t fails on the first round whose two assignments differ. The
// fields are found by reflection, so a field added later is covered.
// shadow must be a pointer to a struct, a copy of fed's configuration.
func MatchDropped(t testing.TB, fed, shadow sched.Policy) sched.Policy {
	return &dropped{Policy: fed, t: t, shadow: shadow}
}

type dropped struct {
	sched.Policy
	t      testing.TB
	shadow sched.Policy
}

func (d *dropped) Assign(ctx *sched.Context) sched.Assignment {
	asg := d.Policy.Assign(ctx)
	v := reflect.ValueOf(d.shadow).Elem()
	fresh := reflect.New(v.Type()).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).IsExported() {
			fresh.Field(i).Set(v.Field(i))
		}
	}
	v.Set(fresh)
	if want := d.shadow.Assign(ctx); !reflect.DeepEqual(asg, want) {
		d.t.Fatalf("%s at t=%g: with its kept state it assigned %+v, with that state dropped %+v", d.Name(), ctx.Now, asg, want)
	}
	return asg
}

func (r *rebuilt) Assign(ctx *sched.Context) sched.Assignment {
	asg := r.Policy.Assign(ctx)
	bare := *ctx
	bare.Changes = nil
	if want := r.shadow.Assign(&bare); !reflect.DeepEqual(asg, want) {
		r.t.Fatalf("%s at t=%g: fed the queue's changes it assigned %+v, rebuilt from Queued %+v", r.Name(), ctx.Now, asg, want)
	}
	return asg
}

type checked struct {
	t    testing.TB
	p    sched.Policy
	opts Options
}

func (c *checked) Name() string { return c.p.Name() }

func (c *checked) Assign(ctx *sched.Context) sched.Assignment {
	asg := c.p.Assign(ctx)
	if err := Check(ctx, asg, c.opts); err != nil {
		c.t.Fatalf("%s at t=%g: %v", c.p.Name(), ctx.Now, err)
	}
	return asg
}

func (c *checked) PerceivedThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return c.p.PerceivedThr(db, w, gpuType, n)
}

func (c *checked) ActualThr(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return c.p.ActualThr(db, w, gpuType, n)
}

func (c *checked) ProfilePrepend(db *perfdb.DB, w model.Workload) float64 {
	return c.p.ProfilePrepend(db, w)
}

func (c *checked) DeployOverhead(db *perfdb.DB, w model.Workload, gpuType string, n int) float64 {
	return c.p.DeployOverhead(db, w, gpuType, n)
}
