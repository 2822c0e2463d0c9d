// Deadline-aware scheduling (§5.6): Arena's generalized event-driven
// policy swaps its objective from throughput maximization (Eq. 5) to the
// deadline constraint (Eq. 6), dropping jobs that cannot make their
// deadlines and packing the rest.
//
//	go run ./examples/deadline
package main

import (
	"context"
	"fmt"
	"log"

	arena "github.com/sjtu-epcc/arena"
)

func main() {
	ctx := context.Background()
	spec := arena.ClusterA()

	cfg := arena.TraceConfig{
		Kind: "philly", Duration: 3 * 3600, NumJobs: 100, Seed: 7,
		GPUTypes: spec.GPUTypes(), MaxGPUs: 16,
		DeadlineFraction: 0.7, // §5.6: most jobs carry deadlines
	}
	jobs, err := arena.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}

	s, err := arena.New(
		arena.WithSeed(42),
		arena.WithCluster(spec),
		arena.WithMaxN(16),
	)
	if err != nil {
		log.Fatal(err)
	}

	// ElasticFlow is the paper's deadline-aware baseline; Arena runs with
	// the deadline objective enabled.
	arenaDDL := arena.NewArenaPolicy()
	arenaDDL.Objective = arena.ObjDeadline

	for _, p := range []arena.Policy{arena.NewElasticFlow(), arenaDDL} {
		res, err := s.Simulate(ctx, arena.SimConfig{
			Policy: p, Source: arena.SliceTraceSource(jobs),
			RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s deadline satisfaction %5.1f%%  avgJCT %7.0fs  avgThr %7.1f  dropped %d\n",
			p.Name(), 100*res.DeadlineRatio(), res.AvgJCT, res.AvgThr, res.Dropped)
	}
	fmt.Println("\nArena drops hopeless jobs early (Eq. 6) instead of letting them occupy GPUs past their deadlines.")
}
