// Command arena-profile runs the single-device disaggregated profiler and
// compares its end-to-end estimate against direct measurement on the
// simulated testbed — the analogue of the paper artifact's
// runtime_profiler.py with --estimate_e2e vs --measure_with_alpa
// (§A.4.2).
//
// Usage:
//
//	arena-profile -model WRes-1B -batch 256 -gpu A40 -n 4 -s 4
//	arena-profile -model GPT-2.6B -batch 128 -gpu V100 -n 4   # all degrees
package main

import (
	"flag"
	"fmt"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/cli"
)

func main() {
	var (
		modelName = flag.String("model", "WRes-1B", "model variant")
		batch     = flag.Int("batch", 256, "global batch size")
		gpu       = flag.String("gpu", "A40", "GPU type")
		n         = flag.Int("n", 4, "allocated GPU count")
		s         = flag.Int("s", 0, "pipeline degree; 0 = all grids")
	)
	c := cli.CommonFlags()
	flag.Parse()
	ctx := cli.Context()

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

	fmt.Printf("offline-sampling communication primitives for %s...\n", *gpu)
	ct, err := sess.CommTable(ctx)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("  %d (primitive, topology) tables, modeled one-shot cost %.1fh\n\n",
		len(ct.Keys()), ct.OfflineCostSeconds/3600)

	pr, err := sess.Profiler(ctx)
	if err != nil {
		cli.Fatal(err)
	}

	degrees := arena.PipelineDegrees(*n, len(g.Ops))
	if *s > 0 {
		degrees = []int{*s}
	}
	fmt.Printf("profiling %s (batch %d) on %dx%s with a single profiling GPU\n\n", *modelName, *batch, *n, *gpu)
	for _, deg := range degrees {
		gp, err := sess.Plan(ctx, arena.Grid{Workload: w, GPUType: *gpu, N: *n, S: deg})
		if err != nil {
			cli.Fatal(err)
		}
		if !gp.Feasible {
			fmt.Printf("s=%d: infeasible\n", deg)
			continue
		}
		est, err := pr.ProfileGridPlan(g, gp)
		if err != nil {
			cli.Fatal(err)
		}
		res, err := sess.Evaluate(ctx, g, gp.Proxy.Plan, *gpu, *batch)
		if err != nil {
			cli.Fatal(err)
		}
		oracle := arena.DirectMeasureCost(res, gp.Proxy.Plan, arena.ProfileTrials)
		errPct := 100 * (est.IterTime - res.IterTime) / res.IterTime
		fmt.Printf("s=%d plan %-24s estimated %.3fs/iter, measured %.3fs/iter (err %+.1f%%)\n",
			deg, gp.Proxy.Plan, est.IterTime, res.IterTime, errPct)
		fmt.Printf("     profiling cost %.1f GPU*s (%d/%d unique ops) vs direct measurement %.1f GPU*s => %.1fx cheaper\n",
			est.ProfileGPUTime, est.UniqueOps, est.TotalOps, oracle, oracle/est.ProfileGPUTime)
	}

	if c.Store != "" {
		db, src := cli.BuildDB(ctx, sess)
		if e, ok := db.Entry(w, *gpu, *n); ok {
			fmt.Printf("\nperfdb (%s): profiler estimate %8.1f samples/s vs deployed plan %-12s %8.1f samples/s\n",
				src, e.ArenaEstThr, e.ArenaPlan, e.ArenaActualThr)
		}
	}
}
