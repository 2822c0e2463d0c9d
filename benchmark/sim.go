package main

import (
	"context"
	"reflect"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// setupDB is the database the simulation and daemon workloads schedule
// against; building it is their set-up.
var setupDB = dbSpec{
	seed:  42,
	types: []string{"A40", "A10"},
	maxN:  16,
	workloads: []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "GPT-2.6B", GlobalBatch: 128},
	},
}

// cluster is an A40+A10 cluster with the given nodes per type (two GPUs
// per node).
func cluster(nodes int) hw.ClusterSpec {
	return hw.ClusterSpec{Name: "bench", Regions: []hw.Region{
		{GPUType: "A40", Nodes: nodes},
		{GPUType: "A10", Nodes: nodes},
	}}
}

// schedSetup builds the shared database and, when more is not nil, runs
// more on it; it repeats that as measure does, timing each set-up. In
// trace mode it then replays the build with spans and checks the replay
// against the database.
func schedSetup(ctx context.Context, c config, res *result, more func(*perfdb.DB) error) (*perfdb.DB, error) {
	var db *perfdb.DB
	err := measure(c.seconds/10, func() error {
		s, err := timed(func() (err error) {
			if db, err = setupDB.build(ctx, nil); err != nil || more == nil {
				return err
			}
			return more(db)
		})
		res.setup = append(res.setup, s)
		return err
	})
	if err != nil || !c.trace {
		return db, err
	}
	return db, traceReplay(ctx, setupDB, entriesOf(db), res, "setup")
}

// heliosSim is a streamed Helios-shaped trace simulated under the Arena
// policy.
type heliosSim struct {
	jobs  int     // expected job count
	days  float64 // arrival span
	nodes int     // nodes per GPU type
}

// heliosDeep arrives faster than the cluster drains, so the queue grows
// thousands deep and each round's Assign and apply walk it.
var heliosDeep = heliosSim{jobs: 12_500, days: 1, nodes: 128}

// heliosLight keeps the queue shallow over many rounds, so per-round
// fixed costs, event advance, admission and trace generation dominate.
var heliosLight = heliosSim{jobs: 70_000, days: 14, nodes: 128}

func (h heliosSim) traceConfig(seed uint64, scale float64) trace.Config {
	cfg := trace.HeliosDay(seed, setupDB.types, max(1, int(float64(h.jobs)*scale)))
	cfg.Duration = h.days * 86400 * scale
	cfg.Workloads = setupDB.workloads
	return cfg
}

// simPass is one simulation.
type simPass struct {
	wall   float64   // seconds, schedtest checks excluded
	rounds []float64 // ms per round
	sum    metrics.Summary
	pol    *timedPolicy // traced pass only
}

// pass runs one simulation. With a recorder it wraps the trace source
// and the policy and splits every round at Assign: the round's work
// before Assign (advance, admission) and after it (apply, sampling) are
// told apart by the Progress event that ends each round.
func (h heliosSim) pass(ctx context.Context, db *perfdb.DB, seed uint64, scale float64, rec *recorder) (*simPass, error) {
	gen, err := trace.Stream(h.traceConfig(seed, scale))
	if err != nil {
		return nil, err
	}
	p := &simPass{}
	var src trace.Source = gen
	var pol sched.Policy = sched.NewArena()
	var marks []time.Time
	progress := func(core.Event) { marks = append(marks, time.Now()) }
	if rec != nil {
		src = timedSource{gen, rec}
		p.pol = &timedPolicy{Policy: pol, rec: rec, name: "sched.assign", pre: "sim.pre_assign", post: "sim.post_assign"}
		pol = p.pol
		progress = func(core.Event) {
			marks = append(marks, time.Now())
			rec.end("sim.post_assign")
			rec.begin("sim.pre_assign")
		}
		rec.begin("pass")
		rec.begin("sim.pre_assign")
	}
	start := time.Now()
	r, err := sim.RunCtx(ctx, sim.Config{
		Spec: cluster(h.nodes), Policy: pol, Source: src, DB: db,
		RoundSeconds: 300, Streaming: true, IncludeUnfinished: true,
		Seed: seed, Progress: progress,
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	rec.rename("sim.pre_assign", "sim.finish")
	rec.end("sim.finish")
	rec.end("pass")

	p.wall = end.Sub(start).Seconds()
	if p.pol != nil {
		p.wall -= p.pol.checks.Seconds()
	}
	prev := start
	for _, m := range marks {
		p.rounds = append(p.rounds, ms(m.Sub(prev)))
		prev = m
	}
	p.sum = r.Summary
	return p, nil
}

func (h heliosSim) run(ctx context.Context, c config) (*result, error) {
	res := &result{}
	if c.trace {
		res.rec = newRecorder()
	}
	db, err := schedSetup(ctx, c, res, nil)
	if err != nil {
		return nil, err
	}
	var sums []metrics.Summary
	err = res.runPasses(c.seconds, func(i int) (float64, error) {
		res.attempted++
		p, err := h.pass(ctx, db, passSeed(c.seed, i), c.scale, nil)
		if err != nil {
			return 0, err
		}
		sums = append(sums, p.sum)
		res.ops.add(p.rounds)
		return p.wall, nil
	})
	if err != nil {
		return nil, err
	}

	var jobs, jct, queue, thr, wall float64
	for i, s := range sums {
		emitted, err := countJobs(h.traceConfig(passSeed(c.seed, i), c.scale))
		if err != nil {
			return nil, err
		}
		res.check(s.Total == emitted, "pass %d: the summary counts %d jobs, the trace has %d", i, s.Total, emitted)
		res.check(s.Finished > 0 && s.AvgJCT > 0 && s.AvgThr > 0, "pass %d: no job finished: %+v", i, s)
		jobs += float64(s.Total)
		jct += s.AvgJCT
		queue += s.AvgQueue
		thr += s.AvgThr
		wall += res.passes[i]
	}
	n := float64(len(sums))
	res.info = []metric{
		{"jobs", jobs / n, "count"},
		{"rounds", float64(res.ops.n) / n, "count"},
		{"jobs_per_s", jobs / wall, "1/s"},
		{"avg_jct_s", jct / n, "s"},
		{"avg_queue_s", queue / n, "s"},
		{"cluster_thr", thr / n, "samples/s"},
	}
	if !c.trace {
		return res, nil
	}

	p, err := h.pass(ctx, db, passSeed(c.seed, 0), c.scale, res.rec)
	res.attempted++
	if err != nil {
		return nil, err
	}
	res.tracedPass, res.refPass = p.wall, res.passes[0]
	res.check(reflect.DeepEqual(sums[0], p.sum), "traced pass: the summary differs from pass 0's")
	res.check(p.pol.checkErr == nil, "schedtest: %v", p.pol.checkErr)
	p.pol.report(res)
	return res, nil
}

// countJobs drains a fresh generator: the number of jobs a run sees.
func countJobs(cfg trace.Config) (int, error) {
	gen, err := trace.Stream(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ok := gen.Next(); ok; _, ok = gen.Next() {
		n++
	}
	return n, nil
}
