// Cluster scheduling: Arena vs the four baselines on a small
// heterogeneous cluster (the paper's Cluster-A, 32×A40 + 32×A10) with a
// bursty 3-hour trace — a miniature of the §5.2 testbed evaluation.
//
// The session builds the performance database once (streaming progress
// while the planner, profiler and AP searches run) and every policy's
// simulation reuses it.
//
//	go run ./examples/scheduling
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	arena "github.com/sjtu-epcc/arena"
)

func main() {
	ctx := context.Background()
	spec := arena.ClusterA()

	// Synthesize a bursty Philly-shaped trace.
	cfg := arena.TraceConfig{
		Kind: "philly", Duration: 3 * 3600, NumJobs: 120, Seed: 42,
		GPUTypes: spec.GPUTypes(), MaxGPUs: 16,
	}
	jobs, err := arena.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The performance database exercises the whole stack: planner,
	// profiler, full and pruned AP searches, for every workload the trace
	// can draw. WithProgress streams one event per (workload, type, count)
	// point as it lands.
	points := 0
	s, err := arena.New(
		arena.WithSeed(42),
		arena.WithCluster(spec),
		arena.WithMaxN(16),
		arena.WithProgress(func(e arena.ProgressEvent) {
			if e.Step == "perfdb.build" {
				points = e.Done
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building the performance database (planner + profiler + AP searches)...")
	if _, err := s.BuildPerfDB(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d (workload, type, count) points built\n", points)

	policies := []arena.Policy{
		arena.NewFCFS(), arena.NewGavel(), arena.NewElasticFlow(),
		arena.NewSia(), arena.NewArenaPolicy(),
	}

	fmt.Printf("\n%-16s %12s %12s %10s %10s %10s\n",
		"policy", "avgJCT", "avgQueue", "avgThr", "peakThr", "finished")
	fmt.Println(strings.Repeat("-", 76))
	var fcfsJCT float64
	for _, p := range policies {
		res, err := s.Simulate(ctx, arena.SimConfig{
			Policy: p, Source: arena.SliceTraceSource(jobs),
			RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if p.Name() == "fcfs" {
			fcfsJCT = res.AvgJCT
		}
		fmt.Printf("%-16s %9.0fs %11.0fs %10.1f %10.1f %7d/%d\n",
			p.Name(), res.AvgJCT, res.AvgQueue, res.AvgThr, res.PeakThr,
			res.Finished, res.Total)
		if p.Name() == "arena" && fcfsJCT > 0 {
			fmt.Printf("\nArena cuts average JCT by %.1f%% vs FCFS on this trace.\n",
				100*(1-res.AvgJCT/fcfsJCT))
		}
	}
}
