package experiments

import (
	"context"

	"fmt"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Fig2 benchmarks adaptive parallelism across (a) GPU amount, (b) GPU
// type, and (c) interconnect, annotating the searched optimal plan —
// demonstrating AP's dynamicity across hardware (§2.2, Fig. 2).
func (e *Env) Fig2(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "AP throughput and optimal plan across amount / type / interconnect",
		Header: []string{"panel", "model", "hardware", "thr(samples/s)", "optimal-plan"},
	}

	type cse struct {
		panel, modelName string
		gb               int
		gpu              string
		n                int
		gpusPerNode      int // 0 = default
		label            string
	}
	var cases []cse
	// (a) Changing amount: 2..8 A40 GPUs.
	for _, m := range []struct {
		name string
		gb   int
	}{{"WRes-0.5B", 256}, {"GPT-1.3B", 128}, {"MoE-1.3B", 256}} {
		for _, n := range []int{2, 4, 8} {
			cases = append(cases, cse{
				panel: "a", modelName: m.name, gb: m.gb, gpu: "A40", n: n,
				label: fmt.Sprintf("%dxA40", n),
			})
		}
	}
	// (b) Changing type: 1×4 V100 vs 1×4 A100.
	for _, m := range []struct {
		name string
		gb   int
	}{{"WRes-2B", 512}, {"GPT-2.6B", 128}, {"MoE-1.3B", 256}} {
		for _, gpu := range []string{"V100", "A100"} {
			cases = append(cases, cse{
				panel: "b", modelName: m.name, gb: m.gb, gpu: gpu, n: 4,
				label: "1x4 " + gpu,
			})
		}
	}
	// (c) Changing interconnect: 1×2 A40 (PCIe) vs 2×1 A40 (InfiniBand).
	for _, m := range []struct {
		name string
		gb   int
	}{{"WRes-0.5B", 256}, {"GPT-1.3B", 128}, {"MoE-1.3B", 256}} {
		for _, layout := range []struct {
			gpn   int
			label string
		}{{2, "1x2 A40 (PCIe)"}, {1, "2x1 A40 (IB)"}} {
			cases = append(cases, cse{
				panel: "c", modelName: m.name, gb: m.gb, gpu: "A40", n: 2,
				gpusPerNode: layout.gpn, label: layout.label,
			})
		}
	}

	for _, c := range cases {
		g, err := model.BuildClustered(c.modelName)
		if err != nil {
			return nil, err
		}
		spec := hw.MustLookup(c.gpu)
		gpn := c.gpusPerNode
		if gpn == 0 {
			gpn = spec.GPUsPerNode
		}
		out, err := search.FullSearchCtx(ctx, e.eng, g, spec, c.gb, c.n, search.Options{GPUsPerNode: gpn})
		if err != nil {
			return nil, err
		}
		thr, plan := 0.0, "OOM"
		if out.Feasible() {
			thr = out.Result.Throughput
			plan = out.Plan.Degrees()
		}
		t.AddRow(c.panel, c.modelName, c.label, fmt.Sprintf("%.1f", thr), plan)
	}
	t.Note("paper: optimal plans shift P/D/M across models and hardware rather than staying static")
	return t, nil
}

// Fig3 reproduces the DP-view vs AP-view scheduling case study (§2.2,
// Fig. 3): cluster-level plan selection inverts between the two views,
// and DP's memory demands hide dense allocations (OOM bars).
func (e *Env) Fig3(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Scheduling plan selection: static-DP view vs adaptive-parallelism view",
		Header: []string{"panel", "plan", "DP-view(sum thr)", "AP-view(sum thr)", "notes"},
	}
	db, err := e.DB(ctx, []string{"A100", "V100"})
	if err != nil {
		return nil, err
	}

	// (a) Allocating a×A100 to WRes-2B, b× to MoE-2.4B, c× to GPT-1.3B,
	// d× to MoE-1.3B.
	jobsA := []model.Workload{
		{Model: "WRes-2B", GlobalBatch: 512},
		{Model: "MoE-2.4B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "MoE-1.3B", GlobalBatch: 256},
	}
	plansA := [][]int{{2, 2, 2, 2}, {4, 2, 2, 0}, {4, 4, 0, 0}, {8, 0, 0, 0}}
	bestDPa, bestAPa, bestDPaPlan, bestAPaPlan := 0.0, 0.0, "", ""
	for _, plan := range plansA {
		var dpSum, apSum float64
		oom := false
		for i, n := range plan {
			if n == 0 {
				continue
			}
			dp := db.DPThr(jobsA[i], "A100", n)
			ap := db.APThr(jobsA[i], "A100", n)
			if dp == 0 {
				oom = true
			}
			dpSum += dp
			apSum += ap
		}
		note := ""
		if oom {
			note = "DP-view: OOM (missing bar)"
		}
		label := fmt.Sprintf("(%d,%d,%d,%d)", plan[0], plan[1], plan[2], plan[3])
		t.AddRow("a", label, fmt.Sprintf("%.1f", dpSum), fmt.Sprintf("%.1f", apSum), note)
		if !oom && dpSum > bestDPa {
			bestDPa, bestDPaPlan = dpSum, label
		}
		if apSum > bestAPa {
			bestAPa, bestAPaPlan = apSum, label
		}
	}
	t.Note("panel a: DP-view selects %s; AP-view optimal is %s (%s)", bestDPaPlan, bestAPaPlan,
		map[bool]string{true: "INVERTED allocation", false: "consistent"}[bestDPaPlan != bestAPaPlan])

	// (b) (A,B): 4×A GPUs for WRes-2B, 4×B for GPT-2.6B.
	wres := model.Workload{Model: "WRes-2B", GlobalBatch: 512}
	gpt := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	bestDPb, bestAPb, bestDPbPlan, bestAPbPlan := 0.0, 0.0, "", ""
	for _, pair := range [][2]string{{"V100", "A100"}, {"A100", "V100"}} {
		dpSum := db.DPThr(wres, pair[0], 4) + db.DPThr(gpt, pair[1], 4)
		apSum := db.APThr(wres, pair[0], 4) + db.APThr(gpt, pair[1], 4)
		note := ""
		if db.DPThr(gpt, pair[1], 4) == 0 {
			note = "GPT-2.6B OOM under DP"
		}
		label := fmt.Sprintf("(%s,%s)", pair[0], pair[1])
		t.AddRow("b", label, fmt.Sprintf("%.1f", dpSum), fmt.Sprintf("%.1f", apSum), note)
		if dpSum > bestDPb {
			bestDPb, bestDPbPlan = dpSum, label
		}
		if apSum > bestAPb {
			bestAPb, bestAPbPlan = apSum, label
		}
	}
	t.Note("panel b: DP-view selects %s; AP-view optimal is %s", bestDPbPlan, bestAPbPlan)
	return t, nil
}

// Fig6 evaluates stage-partition balance at a fixed pipeline degree
// (§3.2, Fig. 6): balanced 2-stage partitions beat imbalanced ones, and
// the best 2-stage plan can beat the 1-stage (perfectly "balanced") case.
func (e *Env) Fig6(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Throughput vs stage partition ratio (2 stages, 4xA40) and the 1-stage reference",
		Header: []string{"model", "partition(X:Y)", "thr(samples/s)"},
	}
	cases := []struct {
		name string
		gb   int
	}{{"GPT-1.3B", 128}, {"MoE-1.3B", 256}, {"WRes-1B", 256}}
	spec := hw.MustLookup("A40")
	for _, c := range cases {
		g, err := model.BuildClustered(c.name)
		if err != nil {
			return nil, err
		}
		// 1-stage reference: best single-stage plan on the 4 GPUs.
		best1 := 0.0
		for tp := 1; tp <= 4; tp *= 2 {
			p := &parallel.Plan{
				Stages:          []parallel.StagePlan{{OpStart: 0, OpEnd: len(g.Ops), DP: 4 / tp, TP: tp}},
				NumMicrobatches: parallel.DefaultMicrobatches(1),
			}
			res, err := e.eng.Evaluate(g, p, spec, c.gb)
			if err == nil && res.Fits && res.Throughput > best1 {
				best1 = res.Throughput
			}
		}
		t.AddRow(c.name, "1-stage", fmt.Sprintf("%.1f", best1))

		best2, best2Ratio := 0.0, ""
		for cut := 1; cut < len(g.Ops); cut++ {
			p := &parallel.Plan{
				Stages: []parallel.StagePlan{
					{OpStart: 0, OpEnd: cut, DP: 2, TP: 1},
					{OpStart: cut, OpEnd: len(g.Ops), DP: 2, TP: 1},
				},
				NumMicrobatches: parallel.DefaultMicrobatches(2),
			}
			res, err := e.eng.Evaluate(g, p, spec, c.gb)
			thr := 0.0
			if err == nil && res.Fits {
				thr = res.Throughput
			}
			ratio := fmt.Sprintf("%d:%d", cut, len(g.Ops)-cut)
			if cut == 1 || cut == len(g.Ops)/2 || cut == len(g.Ops)-1 ||
				cut == 5 || cut == 10 {
				t.AddRow(c.name, ratio, fmt.Sprintf("%.1f", thr))
			}
			if thr > best2 {
				best2, best2Ratio = thr, ratio
			}
		}
		t.AddRow(c.name, "best-2-stage "+best2Ratio, fmt.Sprintf("%.1f", best2))
	}
	t.Note("balanced partitions dominate within a fixed degree; multi-stage can beat 1-stage (paper: up to 1.34x for GPT-3)")
	return t, nil
}

// EtaKnob reproduces the §2.3 strawman analysis: the error of Sia's
// linear estimation vs GPU count, and cluster throughput as the η knob
// sweeps from stock linear estimation (η=1) to fully precise data (η=5).
func (e *Env) EtaKnob(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "eta",
		Title:  "Sia's bootstrapped linear estimation: per-point error and the η precision knob",
		Header: []string{"metric", "setting", "value"},
	}
	db, err := e.DB(ctx, hw.ClusterSim().GPUTypes())
	if err != nil {
		return nil, err
	}
	// Per-point estimation error for GPT-1.3B on A40 (§2.3 reports
	// 1.14×@2GPUs → 2.12×@16GPUs).
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	for _, n := range []int{2, 4, 8, 16} {
		truth := db.APThr(w, "A40", n)
		est := db.SiaEst(w, "A40", n, 1)
		if truth <= 0 {
			continue
		}
		t.AddRow("linear-estimate error", fmt.Sprintf("GPT-1.3B %dxA40", n), ratio(est, truth))
	}

	// Cluster throughput vs η on the simulated cluster under heavy load,
	// with Sia's online refinement disabled so the knob alone governs the
	// estimate precision.
	spec := hw.ClusterSim()
	cfg := trace.PhillyWeek(e.Seed, spec.GPUTypes(), 3000)
	cfg.LifespanScale = 14
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	window := int(7 * 24 * 3600 / 300)
	var base float64
	for eta := 1; eta <= 5; eta++ {
		p := policy.NewSia()
		p.Eta = eta
		p.DisableRefinement = true
		res, err := sim.RunCtx(ctx, sim.Config{
			Spec: spec, Policy: p, Source: trace.SliceSource(jobs), DB: db,
			RoundSeconds: 300, MaxRounds: 2 * window,
			IncludeUnfinished: true, Seed: e.Seed,
		})
		if err != nil {
			return nil, err
		}
		thr := meanWindow(res.ThroughputSeries, window)
		if eta == 1 {
			base = thr
		}
		t.AddRow("cluster throughput", fmt.Sprintf("eta=%d", eta),
			fmt.Sprintf("%.1f (%s vs eta=1), avgJCT %.0fs", thr, ratio(thr, base), res.AvgJCT))
	}
	t.Note("paper: precise data (eta=5) improves overall throughput by 1.19x over stock linear estimation")
	return t, nil
}
