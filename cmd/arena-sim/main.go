// Command arena-sim runs trace-driven cluster scheduling simulations —
// the analogue of the paper artifact's simulator.py (§A.4.4).
//
// Usage:
//
//	arena-sim -policy arena -trace philly -cluster sim -jobs 3000
//	arena-sim -policy all -trace philly -cluster a -store ./measurements
//	arena-sim -policy sia -trace pai -cluster sim -jobs 450 -workers 4
//
// Streaming generation (jobs are drawn on demand instead of materialized,
// so -trace-jobs can be very large at O(active jobs) memory):
//
//	arena-sim -policy arena -trace-gen helios-day -trace-jobs 100000
//	arena-sim -policy all -trace-gen philly-week
//
// Fault injection (deterministic, drawn from -seed):
//
//	arena-sim -policy arena -mtbf 12 -mttr 0.5 -straggler-mtbs 24
//	arena-sim -policy all -fault-trace storm.txt -checkpoint-interval 900
//	arena-sim -policy arena -mtbf 6 -no-fault-recovery   # ablation
//
// Profiling (runtime/pprof; read with `go tool pprof arena-sim cpu.prof`):
//
//	arena-sim -policy arena -trace-gen helios-day -trace-jobs 50000 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"time"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/cli"
	"github.com/sjtu-epcc/arena/internal/metrics"
)

func main() {
	var (
		policyName  = flag.String("policy", "all", "fcfs|gavel|elasticflow|sia|arena|all")
		traceKind   = flag.String("trace", "philly", "philly|helios|pai")
		traceGen    = flag.String("trace-gen", "", "streaming trace generator preset: philly-6h|philly-week|helios-day|pai-day (replaces -trace/-jobs; memory stays O(active jobs))")
		traceJobsN  = flag.Int("trace-jobs", 0, "expected job count for -trace-gen (0 = preset default)")
		clusterName = flag.String("cluster", "sim", "a|b|sim|b-homogeneous")
		jobs        = flag.Int("jobs", 0, "job count (0 = per-trace default)")
		scale       = flag.Float64("scale", 12, "job lifespan scale")
		rounds      = flag.Int("rounds", 0, "max scheduling rounds (0 = auto)")

		mtbf       = flag.Float64("mtbf", 0, "mean time between per-node crashes, hours (0 = no crash injection)")
		mttr       = flag.Float64("mttr", 0.5, "mean node repair time, hours")
		slowMTBS   = flag.Float64("straggler-mtbs", 0, "mean time between per-node straggler episodes, hours (0 = none)")
		faultTrace = flag.String("fault-trace", "", "scripted failure-trace file (lines: <time> crash|recover <type> <node>, <time> slow <type> <node> <factor> <dur>)")
		ckptEvery  = flag.Float64("checkpoint-interval", 1800, "modeled checkpoint period, seconds of productive training")
		noRecovery = flag.Bool("no-fault-recovery", false, "ablation: preempted jobs fail instead of restarting from checkpoint")
	)
	c := cli.CommonFlags()
	prof := cli.ProfileFlags()
	flag.Parse()
	prof.Start()
	defer prof.Stop()
	ctx := cli.Context()

	spec, err := cli.PickCluster(*clusterName)
	if err != nil {
		cli.Fatal(err)
	}
	types := spec.GPUTypes()

	// -trace-gen streams jobs into the simulator on demand (a fresh
	// single-use source per policy run); the default path materializes
	// the whole trace up front.
	var (
		cfg       arena.TraceConfig
		traceJobs []arena.TraceJob
	)
	if *traceGen != "" {
		cfg, err = cli.PickTraceGen(*traceGen, c.Seed, types, *traceJobsN)
	} else {
		cfg, err = cli.PickTrace(*traceKind, c.Seed, types, *jobs)
	}
	if err != nil {
		cli.Fatal(err)
	}
	cfg.LifespanScale = *scale
	if *traceGen == "" {
		traceJobs, err = arena.GenerateTrace(cfg)
		if err != nil {
			cli.Fatal(err)
		}
	}

	sess := cli.NewSession(c,
		arena.WithSeed(c.Seed),
		arena.WithWorkers(c.Workers),
		arena.WithCluster(spec),
		arena.WithMaxN(16),
		arena.WithWorkloads(arena.DefaultWorkloads()...),
	)
	defer cli.CloseSession(sess)

	fmt.Printf("building performance database for %v (this exercises the planner, profiler and AP searches)...\n", types)
	start := time.Now()
	db, src := cli.BuildDB(ctx, sess)
	fmt.Printf("  %d entries (%s) in %v\n\n", len(db.Keys()), src, time.Since(start).Round(time.Millisecond))

	fc, err := faultConfig(*mtbf, *mttr, *slowMTBS, *faultTrace, *ckptEvery, *noRecovery)
	if err != nil {
		cli.Fatal(err)
	}

	pols, err := cli.PickPolicies(*policyName)
	if err != nil {
		cli.Fatal(err)
	}
	window := int(cfg.Duration / 300)
	header := fmt.Sprintf("%-16s %10s %10s %10s %10s %8s %9s",
		"policy", "avgJCT(s)", "avgQ(s)", "avgThr", "peakThr", "finished", "resched")
	if fc.Enabled() {
		header += fmt.Sprintf(" %10s %10s %7s %6s", "goodGPUh", "wasteGPUh", "restart", "failed")
	}
	fmt.Println(header)
	for _, p := range pols {
		sc := arena.SimConfig{
			Policy: p, RoundSeconds: 300, MaxRounds: pick(*rounds, 2*window+576),
			IncludeUnfinished: true, Seed: c.Seed, Faults: fc,
		}
		// Sources are single-use: each policy gets its own (identical)
		// stream.
		if *traceGen == "" {
			sc.Source = arena.SliceTraceSource(traceJobs)
		} else {
			// Streaming mode keeps memory O(active jobs).
			src, err := arena.StreamTrace(cfg)
			if err != nil {
				cli.Fatal(err)
			}
			sc.Source, sc.Streaming = src, true
		}
		res, err := sess.Simulate(ctx, sc)
		if err != nil {
			cli.Fatal(err)
		}
		series := res.ThroughputSeries
		if len(series) > window {
			series = series[:window]
		}
		row := fmt.Sprintf("%-16s %10.0f %10.0f %10.1f %10.1f %5d/%-3d %9.2f",
			p.Name(), res.AvgJCT, res.AvgQueue,
			metrics.Mean(series), metrics.Max(series),
			res.Finished, res.Total, res.AvgReschedules)
		if fc.Enabled() {
			row += fmt.Sprintf(" %10.1f %10.1f %7d %6d",
				res.GoodputGPUHours, res.WastedGPUHours, res.Restarts, res.Failed)
		}
		fmt.Println(row)
	}
}

// faultConfig assembles the fault-injection configuration from the flags;
// nil (disabled) when neither a crash/straggler model nor a trace is
// requested.
func faultConfig(mtbfH, mttrH, slowH float64, tracePath string, ckptEvery float64, noRecovery bool) (*arena.FaultsConfig, error) {
	fc := &arena.FaultsConfig{
		CheckpointInterval: ckptEvery,
		DisableRecovery:    noRecovery,
	}
	if mtbfH > 0 || slowH > 0 {
		fc.Model = &arena.FaultModel{
			Default: arena.TypeFaults{
				MTBF:      mtbfH * 3600,
				MTTR:      mttrH * 3600,
				SlowEvery: slowH * 3600,
			},
		}
	}
	if tracePath != "" {
		sched, err := arena.LoadFaultTrace(tracePath)
		if err != nil {
			return nil, err
		}
		fc.Trace = sched
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fc, nil
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
