package experiments

import (
	"context"

	"fmt"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// testbedTrace builds the §5.2 trace for a physical testbed: a 6-hour
// Philly slice with 244 jobs; Cluster-B scales the workload up (larger
// iteration counts, ≈10×, §5.2).
func (e *Env) testbedTrace(spec hw.ClusterSpec, scale float64) ([]trace.Job, error) {
	cfg := trace.PhillySixHour(e.Seed, spec.GPUTypes())
	cfg.LifespanScale = scale
	return trace.Generate(cfg)
}

// Fig10 runs the real-testbed comparison (§5.2, Fig. 10): JCT, queuing
// time and cluster throughput for five schedulers on Cluster-A and
// Cluster-B.
func (e *Env) Fig10(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Testbed comparison: JCT, queuing time, throughput (Cluster-A and Cluster-B)",
		Header: []string{"cluster", "policy", "avgJCT(s)", "JCT-vs-FCFS", "avgQueue(s)", "queue-vs-FCFS", "avgThr", "thr-vs-FCFS", "peakThr"},
	}
	for _, tc := range []struct {
		spec  hw.ClusterSpec
		scale float64
	}{
		{hw.ClusterA(), 1},
		{hw.ClusterB(), 10},
	} {
		jobs, err := e.testbedTrace(tc.spec, tc.scale)
		if err != nil {
			return nil, err
		}
		db, err := e.DB(ctx, tc.spec.GPUTypes())
		if err != nil {
			return nil, err
		}
		results, order, err := e.runPolicies(ctx, tc.spec, jobs, db, 0, Policies())
		if err != nil {
			return nil, err
		}
		base := results["fcfs"]
		window := maxHorizon(results)
		for _, name := range order {
			r := results[name]
			t.AddRow(tc.spec.Name, name,
				fmt.Sprintf("%.0f", r.AvgJCT), pct(r.AvgJCT, base.AvgJCT),
				fmt.Sprintf("%.0f", r.AvgQueue), pct(r.AvgQueue, base.AvgQueue),
				fmt.Sprintf("%.1f", meanWindow(r.ThroughputSeries, window)),
				ratio(meanWindow(r.ThroughputSeries, window), meanWindow(base.ThroughputSeries, window)),
				fmt.Sprintf("%.1f", maxWindow(r.ThroughputSeries, window)))
		}
	}
	t.Note("paper Cluster-A: Arena -49.3%% JCT, -71.0%% queuing, 1.49x thr; Cluster-B: -48.9%% JCT, -74.9%% queuing, 1.60x thr")
	return t, nil
}

// simWeekTrace is the §5.3 large-scale configuration: a one-week Philly
// trace on the 1,280-GPU 4-type simulated cluster.
func (e *Env) simWeekTrace(jobs int) ([]trace.Job, hw.ClusterSpec, error) {
	spec := hw.ClusterSim()
	cfg := trace.PhillyWeek(e.Seed, spec.GPUTypes(), jobs)
	cfg.LifespanScale = 12
	js, err := trace.Generate(cfg)
	return js, spec, err
}

// Fig11 reports the cluster-throughput time series of the week-long
// simulation (§5.3, Fig. 11), bucketed per half-day, with the low-load
// and heavy-load phases summarized.
func (e *Env) Fig11(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Cluster throughput over one week, 1280-GPU simulated cluster (per half-day buckets)",
		Header: []string{"policy", "phase", "avg-thr(samples/s)"},
	}
	jobs, spec, err := e.simWeekTrace(3000)
	if err != nil {
		return nil, err
	}
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	window := int(7 * 24 * 3600 / 300)
	results, order, err := e.runPolicies(ctx, spec, jobs, db, 2*window, Policies())
	if err != nil {
		return nil, err
	}
	bucket := window / 14 // half-day
	for _, name := range order {
		series := results[name].ThroughputSeries
		if len(series) > window {
			series = series[:window]
		}
		for b := 0; b < 14 && b*bucket < len(series); b++ {
			end := (b + 1) * bucket
			if end > len(series) {
				end = len(series)
			}
			t.AddRow(name, fmt.Sprintf("day%4.1f", float64(b)/2+0.5),
				fmt.Sprintf("%.0f", metrics.Mean(series[b*bucket:end])))
		}
		cut := window * 3 / 7
		t.AddRow(name, "LOW(first 3d)", fmt.Sprintf("%.0f", metrics.Mean(series[:min(cut, len(series))])))
		if len(series) > cut {
			t.AddRow(name, "HEAVY(last 4d)", fmt.Sprintf("%.0f", metrics.Mean(series[cut:])))
		}
	}
	t.Note("paper: Arena scales up faster under burst loads and scales down earlier when load drops")
	return t, nil
}

// Fig12 reports the numerical comparison of the week-long simulation
// (§5.3, Fig. 12): JCT CDF points, finished jobs, average/peak throughput.
func (e *Env) Fig12(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "Large-scale simulation: JCT distribution, finished jobs, throughput",
		Header: []string{"policy", "avgJCT(s)", "JCT-vs-FCFS", "p50JCT", "p90JCT", "finished", "finished-x", "avgThr", "thr-x", "peakThr", "resched/job"},
	}
	jobs, spec, err := e.simWeekTrace(3000)
	if err != nil {
		return nil, err
	}
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	window := int(7 * 24 * 3600 / 300)
	results, order, err := e.runPolicies(ctx, spec, jobs, db, 2*window, Policies())
	if err != nil {
		return nil, err
	}
	base := results["fcfs"]
	for _, name := range order {
		r := results[name]
		t.AddRow(name,
			fmt.Sprintf("%.0f", r.AvgJCT), pct(r.AvgJCT, base.AvgJCT),
			fmt.Sprintf("%.0f", r.P50JCT), fmt.Sprintf("%.0f", r.P90JCT),
			fmt.Sprintf("%d", r.Finished), ratio(float64(r.Finished), float64(base.Finished)),
			fmt.Sprintf("%.0f", meanWindow(r.ThroughputSeries, window)),
			ratio(meanWindow(r.ThroughputSeries, window), meanWindow(base.ThroughputSeries, window)),
			fmt.Sprintf("%.0f", maxWindow(r.ThroughputSeries, window)),
			fmt.Sprintf("%.2f", r.AvgReschedules))
	}
	t.Note("paper: Arena cuts avg JCT by 81.3%%(FCFS)/80.5%%(EF)/76.6%%(Gavel)/75.2%%(Sia); 1.45x more finished jobs; 1.55x avg and 1.58x peak throughput; 2.29 reschedules/job")
	return t, nil
}

// Fig13 runs the Helios (moderate) and PAI (light) day traces (§5.3,
// Fig. 13).
func (e *Env) Fig13(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Helios (moderate load) and PAI (light load) traces on the simulated cluster",
		Header: []string{"trace", "policy", "avgJCT(s)", "JCT-vs-FCFS", "avgThr", "thr-x", "peakThr"},
	}
	spec := hw.ClusterSim()
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	for _, tr := range []struct {
		name string
		cfg  trace.Config
	}{
		{"helios", trace.HeliosDay(e.Seed, spec.GPUTypes(), 900)},
		{"pai", trace.PAIDay(e.Seed, spec.GPUTypes(), 450)},
	} {
		cfg := tr.cfg
		cfg.LifespanScale = 12
		jobs, err := trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		window := int(24 * 3600 / 300)
		results, order, err := e.runPolicies(ctx, spec, jobs, db, 4*window, Policies())
		if err != nil {
			return nil, err
		}
		base := results["fcfs"]
		for _, name := range order {
			r := results[name]
			t.AddRow(tr.name, name,
				fmt.Sprintf("%.0f", r.AvgJCT), pct(r.AvgJCT, base.AvgJCT),
				fmt.Sprintf("%.0f", meanWindow(r.ThroughputSeries, window)),
				ratio(meanWindow(r.ThroughputSeries, window), meanWindow(base.ThroughputSeries, window)),
				fmt.Sprintf("%.0f", maxWindow(r.ThroughputSeries, window)))
		}
	}
	t.Note("paper: up to 74.2%%/63.0%% JCT reduction and 1.64x/1.44x throughput on Helios/PAI")
	return t, nil
}

// Fig17 is the component ablation (§5.7, Fig. 17): Arena with each
// component disabled, against full Arena and FCFS.
func (e *Env) Fig17(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Performance breakdown: disabling Arena components one at a time",
		Header: []string{"variant", "avgThr", "thr-vs-arena", "avgJCT(s)", "JCT-vs-arena"},
	}
	jobs, spec, err := e.simWeekTrace(3000)
	if err != nil {
		return nil, err
	}
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	variants := []sched.Policy{
		sched.NewArena(),
		func() sched.Policy { p := sched.NewArena(); p.DisablePlanner = true; return p }(),
		func() sched.Policy { p := sched.NewArena(); p.DisableProfiler = true; return p }(),
		func() sched.Policy { p := sched.NewArena(); p.DisableElastic = true; return p }(),
		func() sched.Policy { p := sched.NewArena(); p.DisableHetero = true; return p }(),
		func() sched.Policy { p := sched.NewArena(); p.DisablePruning = true; return p }(),
		policy.NewFCFS(),
	}
	window := int(7 * 24 * 3600 / 300)
	results, order, err := e.runPolicies(ctx, spec, jobs, db, 2*window, variants)
	if err != nil {
		return nil, err
	}
	arena := results["arena"]
	arenaThr := meanWindow(arena.ThroughputSeries, window)
	for _, name := range order {
		r := results[name]
		thr := meanWindow(r.ThroughputSeries, window)
		t.AddRow(name,
			fmt.Sprintf("%.0f", thr), pct(thr, arenaThr),
			fmt.Sprintf("%.0f", r.AvgJCT), pct(r.AvgJCT, arena.AvgJCT))
	}
	t.Note("paper: w/o profiler -25.8%% thr / +56.3%% JCT; w/o planner -14.8%% thr; w/o hetero -17.4%% thr / +56.9%% JCT; w/o pruning has limited impact (2.29 reschedules/job)")
	return t, nil
}

// Fig19 sweeps job lifespans and compares Arena's scheduler alone
// (scheduling on DP performance data like the baselines, §5.7, Fig. 19).
func (e *Env) Fig19(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "Arena-Sched (scheduler only, DP performance data) vs baselines over job lifespan scaling",
		Header: []string{"lifespan-x", "policy", "avgThr", "thr-vs-FCFS"},
	}
	spec := hw.ClusterSim()
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		cfg := trace.PhillyWeek(e.Seed, spec.GPUTypes(), 2400)
		cfg.LifespanScale = 12 * scale
		jobs, err := trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		arenaSched := sched.NewArena()
		arenaSched.DisablePlanner = true // schedule on DP data (§5.7)
		arenaSched.DisablePruning = true // other components disabled
		pols := []sched.Policy{
			policy.NewFCFS(), policy.NewGavel(), policy.NewElasticFlow(),
			policy.NewSia(), arenaSched,
		}
		window := int(7 * 24 * 3600 / 300)
		results, order, err := e.runPolicies(ctx, spec, jobs, db, 2*window, pols)
		if err != nil {
			return nil, err
		}
		base := meanWindow(results["fcfs"].ThroughputSeries, window)
		for _, name := range order {
			thr := meanWindow(results[name].ThroughputSeries, window)
			label := name
			if name == "arena-w/o-planner" {
				label = "arena-sched"
			}
			t.AddRow(fmt.Sprintf("%.1f", scale), label,
				fmt.Sprintf("%.0f", thr), ratio(thr, base))
		}
	}
	t.Note("paper: Arena-Sched's advantage grows with lifespan (up to 1.59x); with sparse jobs the multi-level queues fall back to FCFS")
	return t, nil
}

// Deadline evaluates deadline-aware scheduling (§5.6): Arena's deadline
// objective vs ElasticFlow on a deadline-bearing trace.
func (e *Env) Deadline(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "ddl",
		Title:  "Deadline-aware scheduling: Arena (deadline objective) vs ElasticFlow",
		Header: []string{"policy", "ddl-satisfaction", "avgJCT(s)", "avgThr", "peakThr", "dropped"},
	}
	spec := hw.ClusterA()
	cfg := trace.PhillySixHour(e.Seed, spec.GPUTypes())
	cfg.DeadlineFraction = 0.6
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	arenaDDL := sched.NewArena()
	arenaDDL.Objective = sched.ObjDeadline
	pols := []sched.Policy{policy.NewElasticFlow(), arenaDDL}
	results, order, err := e.runPolicies(ctx, spec, jobs, db, 0, pols)
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		r := results[name]
		t.AddRow(name,
			fmt.Sprintf("%.1f%%", 100*r.DeadlineRatio()),
			fmt.Sprintf("%.0f", r.AvgJCT),
			fmt.Sprintf("%.1f", r.AvgThr),
			fmt.Sprintf("%.1f", r.PeakThr),
			fmt.Sprintf("%d", r.Dropped))
	}
	t.Note("paper: Arena improves deadline satisfaction by 1.69x, cuts JCT 26.1%%, with 1.73x avg / 1.96x peak throughput")
	return t, nil
}

// Fidelity compares the coarse 5-minute simulator against a fine-grained
// noisy "testbed" configuration sharing the same policy code (§5.2).
func (e *Env) Fidelity(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fidelity",
		Title:  "Simulation fidelity: 5-min rounds (sim) vs 100s rounds + measurement noise (testbed-like)",
		Header: []string{"policy", "thr-error", "JCT-error"},
	}
	spec := hw.ClusterA()
	jobs, err := e.testbedTrace(spec, 1)
	if err != nil {
		return nil, err
	}
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	var thrErrSum, jctErrSum float64
	var count int
	for _, p := range Policies() {
		coarse, err := sim.RunCtx(ctx, sim.Config{
			Spec: spec, Policy: p, Source: trace.SliceSource(jobs), DB: db,
			RoundSeconds: 300, IncludeUnfinished: true, Seed: e.Seed,
		})
		if err != nil {
			return nil, err
		}
		fine, err := sim.RunCtx(ctx, sim.Config{
			Spec: spec, Policy: p, Source: trace.SliceSource(jobs), DB: db,
			RoundSeconds: 100, ThroughputNoise: 0.03,
			IncludeUnfinished: true, Seed: e.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Compare over a common wall-clock window (zero-padded).
		windowS := 16.0 * 3600
		coarseThr := meanWindow(coarse.ThroughputSeries, int(windowS/300))
		fineThr := meanWindow(fine.ThroughputSeries, int(windowS/100))
		thrErr := metrics.RelErr(coarseThr, fineThr)
		jctErr := metrics.RelErr(coarse.AvgJCT, fine.AvgJCT)
		thrErrSum += thrErr
		jctErrSum += jctErr
		count++
		t.AddRow(p.Name(), fmt.Sprintf("%.2f%%", 100*thrErr), fmt.Sprintf("%.2f%%", 100*jctErr))
	}
	t.AddRow("MEAN", fmt.Sprintf("%.2f%%", 100*thrErrSum/float64(count)), fmt.Sprintf("%.2f%%", 100*jctErrSum/float64(count)))
	t.Note("paper: 3.16%% throughput and 7.22%% JCT simulation error vs the real testbed")
	return t, nil
}

// Sensitivity sweeps the priority-queue count P and scaling search depth D
// (§5.8) on a reduced simulated workload.
func (e *Env) Sensitivity(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "sens",
		Title:  "Sensitivity: priority queues P and scaling search depth D",
		Header: []string{"knob", "value", "avgJCT(s)", "avgThr"},
	}
	spec := hw.ClusterSim()
	db, err := e.DB(ctx, spec.GPUTypes())
	if err != nil {
		return nil, err
	}
	cfg := trace.PhillyWeek(e.Seed, spec.GPUTypes(), 1200)
	cfg.LifespanScale = 12
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	cfg.PriorityLevels = 5
	jobsP, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	window := int(7 * 24 * 3600 / 300)
	run := func(p *sched.ArenaPolicy, js []trace.Job) (*sim.Result, error) {
		return sim.RunCtx(ctx, sim.Config{
			Spec: spec, Policy: p, Source: trace.SliceSource(js), DB: db,
			RoundSeconds: 300, MaxRounds: 2 * window,
			IncludeUnfinished: true, Seed: e.Seed,
		})
	}
	for _, pQ := range []int{1, 2, 3, 4, 5} {
		p := sched.NewArena()
		p.P = pQ
		res, err := run(p, jobsP)
		if err != nil {
			return nil, err
		}
		t.AddRow("P", fmt.Sprintf("%d", pQ), fmt.Sprintf("%.0f", res.AvgJCT),
			fmt.Sprintf("%.0f", meanWindow(res.ThroughputSeries, window)))
	}
	for _, d := range []int{1, 2, 3, 4, 5} {
		p := sched.NewArena()
		p.D = d
		res, err := run(p, jobs)
		if err != nil {
			return nil, err
		}
		t.AddRow("D", fmt.Sprintf("%d", d), fmt.Sprintf("%.0f", res.AvgJCT),
			fmt.Sprintf("%.0f", meanWindow(res.ThroughputSeries, window)))
	}
	t.Note("paper: P=3 balances starvation vs fairness; D 1->3 cuts JCT 14.6%% for +1.03%% throughput at 0.88->5.98s per-job overhead")
	return t, nil
}

// Overheads summarizes the system-overhead analysis of §5.8: profiling,
// rescheduling, and offline communication sampling.
func (e *Env) Overheads(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "overheads",
		Title:  "System overheads (§5.8)",
		Header: []string{"overhead", "workload", "value"},
	}
	types := hw.ClusterSim().GPUTypes()
	db, err := e.DB(ctx, types)
	if err != nil {
		return nil, err
	}
	ct, err := e.CommTable(types)
	if err != nil {
		return nil, err
	}
	for _, w := range sortedWorkloadsOf(mustTrace(e, types)) {
		t.AddRow("arena grid profiling", w.String(), seconds(db.ArenaProfileWall(w)))
		t.AddRow("baseline DP profiling", w.String(), seconds(db.DPProfileWall(w)))
		if len(t.Rows) >= 12 {
			break
		}
	}
	w := sortedWorkloadsOf(mustTrace(e, types))[0]
	t.AddRow("full AP search (16 GPUs)", w.String(), seconds(db.SearchTimeFull(w, types[0], 16)))
	t.AddRow("pruned AP search (16 GPUs)", w.String(), seconds(db.SearchTimePruned(w, types[0], 16)))
	t.AddRow("checkpoint-resume", "-", seconds(sched.CheckpointResume))
	t.AddRow("offline comm sampling", "one-shot", fmt.Sprintf("%.1fh", ct.OfflineCostSeconds/3600))
	t.Note("paper: profiling <20min (8.5min at N=16,M=4); rescheduling 1-2min search + <5min resume; offline sampling ~3.5h per node type")
	return t, nil
}

func mustTrace(e *Env, types []string) []trace.Job {
	cfg := trace.PhillyWeek(e.Seed, types, 200)
	js, err := trace.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return js
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
