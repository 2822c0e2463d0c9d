// Command arena-plan runs Arena's execution-free parallelism planner on
// one model and resource, printing the per-grid proxy plans and Pareto
// frontiers — the analogue of the paper artifact's crius_cell_profile.py
// (§A.4.3; "cell" is the artifact's name for a grid).
//
// Usage:
//
//	arena-plan -model GPT-1.3B -batch 128 -gpu A40 -n 4
//	arena-plan -model WRes-1B -batch 256 -gpu A40 -n 4 -s 2 -frontier
//	arena-plan -model GPT-1.3B -gpu A40 -n 8 -store ./measurements
//
// With -store, the tool also builds the workload's performance-database
// column and persists it: running the same command twice serves the
// second run's column from the store (its perfdb line reads
// "perfdb (store)").
package main

import (
	"flag"
	"fmt"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/cli"
)

func main() {
	var (
		modelName = flag.String("model", "GPT-1.3B", "model variant (see -models)")
		batch     = flag.Int("batch", 128, "global batch size")
		gpu       = flag.String("gpu", "A40", "GPU type")
		n         = flag.Int("n", 4, "allocated GPU count (power of two)")
		s         = flag.Int("s", 0, "pipeline degree; 0 = enumerate all grids")
		frontier  = flag.Bool("frontier", false, "print the Pareto frontier per grid")
		measure   = flag.Bool("measure", true, "measure proxy plans on the simulated testbed")
		models    = flag.Bool("models", false, "list model variants and exit")
	)
	c := cli.CommonFlags()
	flag.Parse()
	ctx := cli.Context()

	if *models {
		for _, name := range arena.ModelNames() {
			fmt.Println(name)
		}
		return
	}

	g, err := arena.BuildModel(*modelName)
	if err != nil {
		cli.Fatal(err)
	}
	w := arena.Workload{Model: *modelName, GlobalBatch: *batch}
	sess := cli.NewSession(c,
		arena.WithSeed(c.Seed),
		arena.WithWorkers(c.Workers),
		arena.WithGPUTypes(*gpu),
		arena.WithMaxN(*n),
		arena.WithWorkloads(w),
	)
	defer cli.CloseSession(sess)

	degrees := arena.PipelineDegrees(*n, len(g.Ops))
	if *s > 0 {
		degrees = []int{*s}
	}
	fmt.Printf("planning %s (batch %d, %.2fB params) on %dx%s\n\n",
		*modelName, *batch, g.Params()/1e9, *n, *gpu)

	for _, deg := range degrees {
		grid := arena.Grid{Workload: w, GPUType: *gpu, N: *n, S: deg}
		gp, err := sess.Plan(ctx, grid)
		if err != nil {
			cli.Fatal(err)
		}
		if !gp.Feasible {
			fmt.Printf("grid s=%d: infeasible (no partition fits %s memory)\n", deg, *gpu)
			continue
		}
		fmt.Printf("grid s=%d: proxy %-24s b_comp=%.3f l_comm=%.4fs  (%d partitions, frontier %d)\n",
			deg, gp.Proxy.Plan, gp.Proxy.BComp, gp.Proxy.LComm,
			gp.CandidatesEvaluated, len(gp.Frontier))
		if *measure {
			res, err := sess.Evaluate(ctx, g, gp.Proxy.Plan, *gpu, *batch)
			if err == nil && res.Fits {
				fmt.Printf("          measured: %.3fs/iter, %.1f samples/s, peak mem %.1f GB\n",
					res.IterTime, res.Throughput, res.MaxMem/arena.GiB)
			}
		}
		if *frontier {
			for i, cand := range gp.Frontier {
				fmt.Printf("          frontier[%d]: %-24s b_comp=%.3f l_comm=%.4fs ops=%v gpus=%v\n",
					i, cand.Plan, cand.BComp, cand.LComm, cand.OpsPerStage, cand.GPUsPerStage)
			}
		}
	}

	if c.Store != "" {
		db, src := cli.BuildDB(ctx, sess)
		if e, ok := db.Entry(w, *gpu, *n); ok {
			fmt.Printf("\nperfdb (%s): AP optimum %-12s %8.1f samples/s (full search %.0fs)\n",
				src, e.APPlan, e.APThr, e.SearchTimeFull)
			fmt.Printf("             Arena       %-12s %8.1f samples/s (pruned search %.0fs, est %.1f)\n",
				e.ArenaPlan, e.ArenaActualThr, e.SearchTimePruned, e.ArenaEstThr)
		} else {
			fmt.Printf("\nperfdb (%s): no entry for n=%d (the database holds power-of-two GPU counts only)\n", src, *n)
		}
	}
}
