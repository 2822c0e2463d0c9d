package main

import (
	"context"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
)

// dbSpec is one performance-database build: the engine seed, the GPU
// types, the largest GPU count and the workloads.
type dbSpec struct {
	seed      uint64
	types     []string
	maxN      int
	workloads []model.Workload
}

// build runs perfdb.Build cold: a fresh engine, no store, no shared cache.
// It runs on one worker: on a machine of a few shared cores a second
// worker measures the other tenants as much as the build.
func (d dbSpec) build(ctx context.Context, progress core.ProgressFunc) (*perfdb.DB, error) {
	return perfdb.BuildCtx(ctx, exec.NewEngine(d.seed), perfdb.Options{
		GPUTypes: d.types, MaxN: d.maxN, Workloads: d.workloads,
		Workers: 1, Progress: progress,
	})
}

// replayStats counts what the serial replay saw inside its layers.
type replayStats struct {
	feasibleGrids int
	cache         evalcache.Stats
}

// replay makes, one call at a time, the public calls perfdb.Build makes,
// with a span around each layer call, and returns every entry it
// computes. traceReplay then proves the replay computed what the build
// did, so the spans describe the real build's work.
func (d dbSpec) replay(ctx context.Context, rec *recorder) (map[perfdb.Key]perfdb.Entry, replayStats, error) {
	var st replayStats
	eng := exec.NewEngine(d.seed)
	rec.begin("profiler.comm_sample")
	ct, err := profiler.OfflineSampleComm(eng, d.types, d.maxN)
	rec.end("profiler.comm_sample")
	if err != nil {
		return nil, st, err
	}
	entries := map[perfdb.Key]perfdb.Entry{}
	for _, w := range d.workloads {
		rec.begin("model.build_graph")
		g, err := model.BuildClustered(w.Model)
		rec.end("model.build_graph")
		if err != nil {
			return nil, st, err
		}
		jp, err := d.profileJob(rec, eng, ct, g, w, &st)
		if err != nil {
			return nil, st, err
		}
		cache := evalcache.New(eng)
		opts := search.Options{Cache: cache, Workers: 1}
		for _, typ := range d.types {
			spec := hw.MustLookup(typ)
			for n := 1; n <= d.maxN; n *= 2 {
				e, err := d.point(ctx, rec, eng, g, w, jp, spec, n, opts)
				if err != nil {
					return nil, st, err
				}
				entries[perfdb.Key{Workload: w, GPUType: typ, N: n}] = e
			}
		}
		s := cache.Stats()
		st.cache.StageHits += s.StageHits
		st.cache.StageMisses += s.StageMisses
		st.cache.PlanHits += s.PlanHits
		st.cache.PlanMisses += s.PlanMisses
	}
	return entries, st, nil
}

// profileJob plans every grid of the workload and profiles each feasible
// one, as profiler.ProfileJob does.
func (d dbSpec) profileJob(rec *recorder, eng *exec.Engine, ct *profiler.CommTable, g *model.Graph, w model.Workload, st *replayStats) (*profiler.JobProfile, error) {
	pl := planner.New()
	pr := profiler.New(eng, ct)
	jp := &profiler.JobProfile{
		Workload:  w,
		Estimates: map[core.Grid]*profiler.Estimate{},
		GridPlans: map[core.Grid]*planner.GridPlan{},
	}
	for _, grid := range core.Enumerate(w, len(g.Ops), d.types, d.maxN) {
		rec.begin("planner.plan_grid")
		gp, err := pl.PlanGrid(g, grid)
		rec.end("planner.plan_grid")
		if err != nil {
			return nil, err
		}
		if !gp.Feasible {
			continue
		}
		st.feasibleGrids++
		jp.GridPlans[grid] = gp
		rec.begin("profiler.profile_grid_plan")
		est, err := pr.ProfileGridPlan(g, gp)
		rec.end("profiler.profile_grid_plan")
		if err != nil {
			return nil, err
		}
		jp.Estimates[grid] = &est
	}
	return jp, nil
}

// point computes one (workload, type, count) entry: the data-parallel
// view, the full search and Arena's pruned search on its best grid.
func (d dbSpec) point(ctx context.Context, rec *recorder, eng *exec.Engine, g *model.Graph, w model.Workload, jp *profiler.JobProfile, spec hw.GPU, n int, opts search.Options) (perfdb.Entry, error) {
	var e perfdb.Entry
	rec.begin("exec.evaluate_dp")
	dp, err := opts.Cache.Evaluate(g, parallel.PureDP(g, n), spec, w.GlobalBatch, spec.GPUsPerNode)
	rec.end("exec.evaluate_dp")
	if err != nil {
		return e, err
	}
	if dp.Fits {
		e.DPThr = dp.Throughput
	}

	rec.begin("search.full")
	full, err := search.FullSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, opts)
	rec.end("search.full")
	if err != nil {
		return e, err
	}
	e.SearchTimeFull = full.SearchTime
	if full.Feasible() {
		e.APThr = full.Result.Throughput
		e.APPlan = full.Plan.Degrees()
	}

	grid, ok := jp.BestGrid(core.Resource{GPUType: spec.Name, N: n})
	if !ok {
		return e, nil
	}
	e.ArenaEstThr = jp.Estimates[grid].Throughput
	rec.begin("search.pruned")
	pruned, err := search.PrunedSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, jp.GridPlans[grid], opts)
	rec.end("search.pruned")
	if err == nil && pruned.Feasible() {
		e.ArenaActualThr = pruned.Result.Throughput
		e.ArenaPlan = pruned.Plan.Degrees()
		e.SearchTimePruned = pruned.SearchTime
	}
	return e, nil
}

// traceReplay replays a database build under the named frame and checks
// every entry against the built ones.
func traceReplay(ctx context.Context, spec dbSpec, built map[perfdb.Key]perfdb.Entry, res *result, frame string) error {
	res.rec.begin(frame)
	entries, st, err := spec.replay(ctx, res.rec)
	res.rec.end(frame)
	if err != nil {
		return err
	}
	n := differing(built, entries)
	res.check(n == 0, "%d of %d perfdb entries differ from the serial replay", n, len(built))
	res.figure("planner.plan_grid.feasible", float64(st.feasibleGrids))
	res.figure("evalcache.stage_hit_ratio", ratio(st.cache.StageHits, st.cache.StageHits+st.cache.StageMisses))
	res.figure("evalcache.plan_hit_ratio", ratio(st.cache.PlanHits, st.cache.PlanHits+st.cache.PlanMisses))
	return nil
}

// entriesOf copies every entry of db.
func entriesOf(db *perfdb.DB) map[perfdb.Key]perfdb.Entry {
	m := map[perfdb.Key]perfdb.Entry{}
	for _, k := range db.Keys() {
		e, _ := db.Entry(k.Workload, k.GPUType, k.N)
		m[k] = *e
	}
	return m
}

// differing counts the keys whose entries want and got disagree on,
// including keys only one of them has.
func differing(want, got map[perfdb.Key]perfdb.Entry) int {
	n := 0
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			n++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			n++
		}
	}
	return n
}
