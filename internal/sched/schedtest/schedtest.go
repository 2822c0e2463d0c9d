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
//   - Identity: every Place / Drop / Migrate entry is one of the
//     round's Queued or Running pointers (a copy carrying a queued job's
//     ID is an impostor the engine would ignore); no two distinct jobs
//     named in one assignment share an ID, since the engine orders its
//     work by ID; Drop and Migrate carry no duplicates, and neither
//     overlaps Place/Drop in a contradictory way.
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

	queued := map[*sched.Job]bool{}
	for _, j := range ctx.Queued {
		queued[j] = true
	}
	running := map[*sched.Job]bool{}
	for _, j := range ctx.Running {
		running[j] = true
	}
	// named maps each ID the assignment names to the first job named
	// under it; a second, distinct job under the same ID is reported once.
	named := map[string]*sched.Job{}
	shared := map[string]bool{}
	name := func(j *sched.Job) {
		if prev, ok := named[j.Trace.ID]; !ok {
			named[j.Trace.ID] = j
		} else if prev != j && !shared[j.Trace.ID] {
			shared[j.Trace.ID] = true
			fail("two distinct jobs named %s", j.Trace.ID)
		}
	}

	// Capacity balance per type: snapshot free, plus what running jobs'
	// re-places and releases free, minus what placements consume.
	types := map[string]bool{}
	balance := map[string]int{}
	for _, typ := range ctx.Cluster.GPUTypes() {
		types[typ] = true
		balance[typ] = ctx.Cluster.FreeGPUs(typ)
	}
	// Iterate placements in ID order (then target, for jobs sharing an
	// ID): fail messages end up in the returned error, so map-range order
	// would make the report (and any test asserting on it) differ run to
	// run.
	placed := make([]*sched.Job, 0, len(asg.Place))
	for j := range asg.Place {
		placed = append(placed, j)
	}
	sort.Slice(placed, func(a, b int) bool {
		x, y := placed[a], placed[b]
		tx, ty := asg.Place[x], asg.Place[y]
		if x.Trace.ID != y.Trace.ID {
			return x.Trace.ID < y.Trace.ID
		}
		if tx.GPUType != ty.GPUType {
			return tx.GPUType < ty.GPUType
		}
		return tx.N < ty.N
	})
	for _, j := range placed {
		id, target := j.Trace.ID, asg.Place[j]
		name(j)
		isRunning := running[j]
		if !isRunning && !queued[j] {
			fail("Place[%s]: not a job of the round", id)
			continue
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
	dropped := map[*sched.Job]bool{}
	for _, j := range asg.Drop {
		id := j.Trace.ID
		if dropped[j] {
			fail("Drop: %s listed twice", id)
			continue
		}
		dropped[j] = true
		name(j)
		if _, placed := asg.Place[j]; placed {
			fail("%s both placed and dropped", id)
		}
		switch {
		case queued[j]:
		case running[j]:
			fail("Drop: %s is not queued", id)
		default:
			fail("Drop: %s is not a job of the round", id)
		}
	}

	// Migrate: no duplicates, running targets, healthy destination.
	migrated := map[*sched.Job]bool{}
	for _, j := range asg.Migrate {
		id := j.Trace.ID
		if migrated[j] {
			fail("Migrate: %s listed twice", id)
			continue
		}
		migrated[j] = true
		name(j)
		if dropped[j] {
			fail("%s both dropped and migrated", id)
		}
		if !queued[j] && !running[j] {
			fail("Migrate: %s is not a job of the round", id)
			continue
		}
		if _, placed := asg.Place[j]; placed {
			continue // a rescale supersedes the migration; engine ignores it
		}
		if !running[j] {
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
