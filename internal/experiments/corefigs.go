package experiments

import (
	"context"

	"fmt"
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
)

// Fig14 reproduces the Pareto-frontier case study (§5.4, Fig. 14): within
// a grid, every candidate partition is enumerated and measured; the proxy
// plan's percentile position and fraction-of-optimal are reported.
func (e *Env) Fig14(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Pareto frontier deduction: proxy plan vs all plans in the grid",
		Header: []string{"case", "plans", "proxy-thr", "best-thr", "proxy/best", "percentile"},
	}
	cases := []struct {
		modelName string
		gb, n, s  int
	}{
		{"WRes-1B", 256, 4, 2},
		{"WRes-2B", 512, 8, 4},
		{"WRes-4B", 1024, 16, 8},
	}
	pl := planner.New()
	spec := hw.MustLookup("A40")
	var fracSum float64
	for _, c := range cases {
		g, err := model.BuildClustered(c.modelName)
		if err != nil {
			return nil, err
		}
		grid := core.Grid{
			Workload: model.Workload{Model: c.modelName, GlobalBatch: c.gb},
			GPUType:  "A40", N: c.n, S: c.s,
		}
		gp, err := pl.PlanGrid(g, grid)
		if err != nil {
			return nil, err
		}
		if !gp.Feasible {
			t.AddRow(fmt.Sprintf("%s %dGPU %dstage", c.modelName, c.n, c.s), "0", "-", "-", "-", "-")
			continue
		}
		// Enumerate *all* candidate plans of the grid (every partition with
		// its normalized assignment and intra choice) and measure each.
		proxyRes, err := e.eng.Evaluate(g, gp.Proxy.Plan, spec, c.gb)
		if err != nil {
			return nil, err
		}
		var thrs []float64
		all := pl.EnumerateCandidates(g, grid)
		for _, cand := range all {
			res, err := e.eng.Evaluate(g, cand.Plan, spec, c.gb)
			if err == nil && res.Fits {
				thrs = append(thrs, res.Throughput)
			}
		}
		sort.Float64s(thrs)
		best := thrs[len(thrs)-1]
		// Percentile of the proxy among all measured plans.
		pos := sort.SearchFloat64s(thrs, proxyRes.Throughput)
		percentile := float64(pos) / float64(len(thrs))
		frac := proxyRes.Throughput / best
		fracSum += frac
		t.AddRow(
			fmt.Sprintf("%s %dGPU %dstage", c.modelName, c.n, c.s),
			fmt.Sprintf("%d", len(thrs)),
			fmt.Sprintf("%.1f", proxyRes.Throughput),
			fmt.Sprintf("%.1f", best),
			fmt.Sprintf("%.1f%%", 100*frac),
			fmt.Sprintf("p%.0f", 100*percentile),
		)
	}
	t.Note("paper: proxy achieves 86.2%%/85.6%%/94.3%% of grid-optimal on 4/8/16 GPUs; measured mean here: %.1f%%", 100*fracSum/float64(len(cases)))
	return t, nil
}

// Fig15 compares Arena's pruned AP search against the full-space (Alpa)
// search (§5.4, Fig. 15): plan quality and search-cost reduction.
func (e *Env) Fig15(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "AP search with pruning vs Alpa full search",
		Header: []string{"model", "n", "alpa-iter(s)", "arena-iter(s)", "quality", "alpa-search(s)", "arena-search(s)", "cost-cut"},
	}
	pl := planner.New()
	spec := hw.MustLookup("A40")
	var qualitySum, cutSum float64
	var count int
	var maxCut float64
	for _, m := range []struct {
		name string
		gb   int
	}{{"WRes-1B", 256}, {"GPT-1.3B", 128}, {"MoE-1.3B", 256}} {
		g, err := model.BuildClustered(m.name)
		if err != nil {
			return nil, err
		}
		w := model.Workload{Model: m.name, GlobalBatch: m.gb}
		for _, n := range []int{1, 2, 4, 8, 16} {
			full, err := search.FullSearchCtx(ctx, e.eng, g, spec, m.gb, n, search.Options{})
			if err != nil {
				return nil, err
			}
			if !full.Feasible() {
				continue
			}
			// Best grid by engine-measured proxy throughput.
			var bestGP *planner.GridPlan
			var bestThr float64
			for _, s := range core.PipelineDegrees(n, len(g.Ops)) {
				gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: "A40", N: n, S: s})
				if err != nil || !gp.Feasible {
					continue
				}
				res, err := e.eng.Evaluate(g, gp.Proxy.Plan, spec, m.gb)
				if err != nil || !res.Fits {
					continue
				}
				if bestGP == nil || res.Throughput > bestThr {
					bestGP, bestThr = gp, res.Throughput
				}
			}
			if bestGP == nil {
				continue
			}
			pruned, err := search.PrunedSearchCtx(ctx, e.eng, g, spec, m.gb, n, bestGP, search.Options{})
			if err != nil || !pruned.Feasible() {
				continue
			}
			quality := pruned.Result.Throughput / full.Result.Throughput
			cut := full.SearchTime / pruned.SearchTime
			qualitySum += quality
			cutSum += cut
			count++
			if cut > maxCut {
				maxCut = cut
			}
			t.AddRow(m.name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", full.Result.IterTime),
				fmt.Sprintf("%.2f", pruned.Result.IterTime),
				fmt.Sprintf("%.1f%%", 100*quality),
				fmt.Sprintf("%.0f", full.SearchTime),
				fmt.Sprintf("%.0f", pruned.SearchTime),
				fmt.Sprintf("%.2fx", cut))
		}
	}
	t.Note("measured: %.1f%% of Alpa quality on average; %.2fx mean (%.2fx max) search-cost reduction", 100*qualitySum/float64(count), cutSum/float64(count), maxCut)
	t.Note("paper: 96.2%% of Alpa performance; 5.48x mean / 10.88x max search-cost reduction")
	return t, nil
}

// Fig16 evaluates the disaggregated profiler (§5.5, Fig. 16): end-to-end
// estimation error and GPU-time cost vs the direct-measurement Oracle,
// per GPU count averaged across models.
func (e *Env) Fig16(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Disaggregated profiling: error rate and cost vs direct measurement",
		Header: []string{"n", "avg-error", "arena-cost(GPU*s)", "oracle-cost(GPU*s)", "cost-cut"},
	}
	types := []string{"A40", "A10", "V100", "A100"}
	ct, err := e.CommTable(types)
	if err != nil {
		return nil, err
	}
	pl := planner.New()

	models := []struct {
		name string
		gb   int
	}{{"WRes-1B", 256}, {"GPT-1.3B", 128}, {"MoE-1.3B", 256}, {"GPT-2.6B", 128}}

	var totalErrSum float64
	var totalErrCount int
	var totalCutSum float64
	var cutCount int
	minCut := math.MaxFloat64
	for _, n := range []int{1, 2, 4, 8, 16} {
		var errSum, arenaCost, oracleCost float64
		var errCount int
		for _, m := range models {
			for _, typ := range []string{"A40", "A100"} {
				g, err := model.BuildClustered(m.name)
				if err != nil {
					return nil, err
				}
				spec := hw.MustLookup(typ)
				w := model.Workload{Model: m.name, GlobalBatch: m.gb}
				// Per-(model, n) profiling session: fresh cache. The Oracle
				// alternative measures the same set of proxy plans by
				// direct multi-GPU execution (Fig. 16(b)).
				pr := profiler.New(e.eng, ct)
				var bestEst *profiler.Estimate
				for _, s := range core.PipelineDegrees(n, len(g.Ops)) {
					gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: typ, N: n, S: s})
					if err != nil || !gp.Feasible {
						continue
					}
					est, err := pr.ProfileGridPlan(g, gp)
					if err != nil {
						continue
					}
					arenaCost += est.ProfileGPUTime
					direct, err := e.eng.Evaluate(g, gp.Proxy.Plan, spec, m.gb)
					if err == nil && direct.Fits {
						oracleCost += exec.DirectMeasureCost(direct, gp.Proxy.Plan, profiler.Trials)
					}
					if bestEst == nil || est.Throughput > bestEst.Throughput {
						cp := est
						bestEst = &cp
					}
				}
				if bestEst == nil {
					continue
				}
				res, err := e.eng.Evaluate(g, bestEst.Plan, spec, m.gb)
				if err != nil || !res.Fits {
					continue
				}
				errSum += math.Abs(bestEst.IterTime-res.IterTime) / res.IterTime
				errCount++
			}
		}
		if errCount == 0 {
			continue
		}
		cut := oracleCost / arenaCost
		totalErrSum += errSum
		totalErrCount += errCount
		totalCutSum += cut
		cutCount++
		if cut < minCut {
			minCut = cut
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f%%", 100*errSum/float64(errCount)),
			fmt.Sprintf("%.0f", arenaCost),
			fmt.Sprintf("%.0f", oracleCost),
			fmt.Sprintf("%.2fx", cut))
	}
	t.Note("measured: %.1f%% mean error; %.2fx mean (%.2fx min) profiling cost reduction",
		100*totalErrSum/float64(totalErrCount), totalCutSum/float64(cutCount), minCut)
	t.Note("paper: 4.4/5.1/3.1/4.6/8.3%% error for 1/2/4/8/16 GPUs; 18.1x mean (2.55x min) GPU-time reduction")
	return t, nil
}

// Fig18 breaks a GPT-2.6B iteration into compute and communication GPU
// time across microbatch sizes and GPU counts (§5.7, Fig. 18), comparing
// Arena's plan, the unpruned full-AP plan, and the baseline (Sia-style
// over-allocation: 2× the GPUs under pure DP).
func (e *Env) Fig18(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "GPT-2.6B training GPU-time breakdown on A40 (compute / communication)",
		Header: []string{"sweep", "setting", "system", "plan", "compute(GPU*s)", "comm(GPU*s)"},
	}
	g, err := model.BuildClustered("GPT-2.6B")
	if err != nil {
		return nil, err
	}
	spec := hw.MustLookup("A40")
	pl := planner.New()

	eval := func(sweep, setting string, gb, n int) error {
		w := model.Workload{Model: "GPT-2.6B", GlobalBatch: gb}
		// Arena: pruned search on the best grid.
		var bestGP *planner.GridPlan
		var bestThr float64
		for _, s := range core.PipelineDegrees(n, len(g.Ops)) {
			gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: "A40", N: n, S: s})
			if err != nil || !gp.Feasible {
				continue
			}
			res, err := e.eng.Evaluate(g, gp.Proxy.Plan, spec, gb)
			if err != nil || !res.Fits {
				continue
			}
			if bestGP == nil || res.Throughput > bestThr {
				bestGP, bestThr = gp, res.Throughput
			}
		}
		if bestGP == nil {
			return fmt.Errorf("fig18: no feasible grid for n=%d gb=%d", n, gb)
		}
		arena, err := search.PrunedSearchCtx(ctx, e.eng, g, spec, gb, n, bestGP, search.Options{})
		if err != nil || !arena.Feasible() {
			return fmt.Errorf("fig18: pruned search failed: %v", err)
		}
		t.AddRow(sweep, setting, "arena", arena.Plan.Degrees(),
			fmt.Sprintf("%.1f", arena.Result.ComputeGPUTime),
			fmt.Sprintf("%.1f", arena.Result.CommGPUTime))

		full, err := search.FullSearchCtx(ctx, e.eng, g, spec, gb, n, search.Options{})
		if err == nil && full.Feasible() {
			t.AddRow(sweep, setting, "arena-w/o-pruning", full.Plan.Degrees(),
				fmt.Sprintf("%.1f", full.Result.ComputeGPUTime),
				fmt.Sprintf("%.1f", full.Result.CommGPUTime))
		}

		// Baseline: Sia-style over-allocation — 2× GPUs under the plans
		// its DP view prefers (§5.7: "we statically assume 2x more GPUs
		// allocated by it").
		bn := n * 2
		if bn > 16 {
			bn = 16
		}
		baseOut, err := search.FullSearchCtx(ctx, e.eng, g, spec, gb, bn, search.Options{})
		if err == nil && baseOut.Feasible() {
			t.AddRow(sweep, setting, "baseline(2x GPUs)", baseOut.Plan.Degrees(),
				fmt.Sprintf("%.1f", baseOut.Result.ComputeGPUTime),
				fmt.Sprintf("%.1f", baseOut.Result.CommGPUTime))
		}
		return nil
	}

	// (a) Scaling with microbatch size at 8 GPUs: global batch = 8 micro ×
	// microbatch size (the paper sweeps microbatch 8/16/32).
	for _, mbs := range []int{8, 16, 32} {
		if err := eval("batch", fmt.Sprintf("mbs=%d", mbs), mbs*8, 8); err != nil {
			return nil, err
		}
	}
	// (b) Scaling with GPU count at microbatch 16.
	for _, n := range []int{4, 8, 16} {
		if err := eval("gpus", fmt.Sprintf("n=%d", n), 128, n); err != nil {
			return nil, err
		}
	}
	t.Note("paper: widening DP barely changes compute GPU time but inflates communication GPU time (up to 9.15x); Arena matches full-AP plans within 5%%")
	return t, nil
}
