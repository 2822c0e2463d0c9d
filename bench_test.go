// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one testing.B benchmark per experiment, plus
// micro-benchmarks of the core primitives. The figure benchmarks print
// their tables on the first iteration so `go test -bench=.` doubles as a
// report generator; deterministic seeds make every run identical.
package arena_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/experiments"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/server"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func sharedEnv() *experiments.Env {
	envOnce.Do(func() { benchEnv = experiments.NewEnv(42) })
	return benchEnv
}

// benchExperiment runs one registered experiment b.N times, printing the
// resulting table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	env := sharedEnv()
	ex, err := env.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		table, err := ex.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var w io.Writer = os.Stdout
			if testing.Short() {
				w = io.Discard
			}
			table.Fprint(w)
		}
	}
}

// --- One benchmark per paper table/figure (§5). ---

func BenchmarkFig02APDynamicity(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig03ViewInversion(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig06PartitionBalance(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkEtaKnob(b *testing.B)               { benchExperiment(b, "eta") }
func BenchmarkFig10Testbeds(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFidelity(b *testing.B)              { benchExperiment(b, "fidelity") }
func BenchmarkFig11WeekSeries(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12LargeScale(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13HeliosPAI(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14ParetoProxy(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15PrunedSearch(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16Profiling(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkDeadline(b *testing.B)              { benchExperiment(b, "ddl") }
func BenchmarkFig17Ablation(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18Breakdown(b *testing.B)        { benchExperiment(b, "fig18") }
func BenchmarkFig19LifespanScaling(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkSensitivityPD(b *testing.B)         { benchExperiment(b, "sens") }
func BenchmarkOverheads(b *testing.B)             { benchExperiment(b, "overheads") }
func BenchmarkDesignAblation(b *testing.B)        { benchExperiment(b, "design") }

// --- Micro-benchmarks of the core primitives. ---

func BenchmarkKernelTime(b *testing.B) {
	eng := arena.NewEngine(42)
	g := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")
	op := g.Ops[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.KernelTime(op, spec, 16, 2)
	}
}

func BenchmarkCollectiveTime(b *testing.B) {
	eng := arena.NewEngine(42)
	spec := arena.MustGPU("A40")
	topo := hw.Topology{GPUType: "A40", Workers: 8, CrossNode: true, NICShare: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.CollectiveTime(&spec, hw.AllReduce, topo, 1e9)
	}
}

func BenchmarkEvaluatePlan(b *testing.B) {
	eng := arena.NewEngine(42)
	g := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")
	plan := arena.PureDP(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(g, plan, spec, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanGrid times the planner on the grid columns a cold perfdb
// build actually plans: every (N, S) grid up to 16 GPUs for a
// memory-comfortable workload (GPT-1.3B on A40) and a memory-tight one
// (MoE-10B on A10, where the DP's infeasible-subtree skipping also
// engages). Each column is one job's grids on one GPU type, planned in
// the build's order through one Planner, so the benchmark times the path
// the build takes: a column's grids share their intra-stage tables, and
// the switch to the other column drops them, so every iteration starts
// cold. dp is PlanGrid's prefix-DP enumerator and incremental Pareto
// sweep; the sub-benchmark keeps its name so its baseline key still
// matches.
func BenchmarkPlanGrid(b *testing.B) {
	cases := []struct {
		model string
		gb    int
		typ   string
	}{
		{"GPT-1.3B", 128, "A40"},
		{"MoE-10B", 256, "A10"},
	}
	type column struct {
		g     *model.Graph
		grids []core.Grid
	}
	var columns []column
	for _, c := range cases {
		g := arena.MustBuildModel(c.model)
		w := model.Workload{Model: c.model, GlobalBatch: c.gb}
		columns = append(columns, column{g: g, grids: core.Enumerate(w, len(g.Ops), []string{c.typ}, 16)})
	}
	b.Run("dp", func(b *testing.B) {
		pl := planner.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, col := range columns {
				for _, grid := range col.grids {
					if _, err := pl.PlanGrid(col.g, grid); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

func BenchmarkFullSearch8GPU(b *testing.B) {
	eng := arena.NewEngine(42)
	g := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.FullSearchCtx(context.Background(), eng, g, spec, 128, 8, search.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSearch times one 16-GPU full-search column (n = 1..16,
// as perfdb builds it) two ways. serial runs each search on one worker
// with a fresh private cache (Options{}), so only reuse within one search
// counts; cached-parallel shares one cache, cold at the start of every
// iteration, across the column and fans profiling out over every core,
// so its speedup is intra-column reuse plus fan-out, not warm-cache
// replay.
func BenchmarkFullSearch(b *testing.B) {
	ctx := context.Background()
	eng := arena.NewEngine(42)
	g := arena.MustBuildModel("GPT-1.3B")
	spec := arena.MustGPU("A40")
	column := func(opts search.Options) {
		for n := 1; n <= 16; n *= 2 {
			if _, err := search.FullSearchCtx(ctx, eng, g, spec, 128, n, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(search.Options{})
		}
	})
	b.Run("cached-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(search.Options{Cache: evalcache.New(eng), Workers: -1})
		}
	})
}

// BenchmarkBuildPerfDB times a cold database build (shared per-workload
// evalcache plus the types × counts fan-out). The sub-benchmark keeps
// its name, cached, so its baseline key still matches.
func BenchmarkBuildPerfDB(b *testing.B) {
	opts := perfdb.Options{
		GPUTypes: []string{"A40"}, MaxN: 16,
		Workloads: []model.Workload{
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "WRes-1B", GlobalBatch: 256},
		},
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := perfdb.BuildCtx(context.Background(), arena.NewEngine(42), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	simBenchOnce sync.Once
	simBenchDB   *perfdb.DB
	simBenchJobs []trace.Job
	simBenchErr  error
)

// simBenchSetup builds the shared fixture of BenchmarkSimRun once per
// process: a small database over the trace's workloads and a Philly-like
// job arrival sequence, mirroring the simulator test setup.
func simBenchSetup() {
	simBenchOnce.Do(func() {
		workloads := []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		}
		simBenchDB, simBenchErr = perfdb.BuildCtx(context.Background(), arena.NewEngine(42), perfdb.Options{
			GPUTypes: []string{"A40", "A10"}, MaxN: 16, Workloads: workloads,
		})
		if simBenchErr != nil {
			return
		}
		simBenchJobs, simBenchErr = trace.Generate(trace.Config{
			Kind: trace.Philly, Duration: 3 * 3600, NumJobs: 40, Seed: 7,
			GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
			Workloads: workloads,
		})
	})
}

// BenchmarkSimRun guards the discrete-event simulator's hot path: one
// full Cluster-A run of the Arena scheduler over a 40-job Philly-like
// trace against a prebuilt database (the database build is excluded —
// BenchmarkBuildPerfDB guards that separately).
func BenchmarkSimRun(b *testing.B) {
	simBenchSetup()
	if simBenchErr != nil {
		b.Fatal(simBenchErr)
	}
	b.Run("arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunCtx(context.Background(), sim.Config{
				Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(simBenchJobs),
				DB: simBenchDB, RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res == nil {
				b.Fatal("nil simulation result")
			}
		}
	})
	// 100k runs the Arena policy itself — since the incremental scoring
	// layer (launch ladders, failure memos, gain heaps), the full policy
	// survives a 100k-job streamed day on 2048 GPUs inside the benchmark
	// budget, so the gate covers policy search at scale, not just the
	// engine.
	b.Run("100k", func(b *testing.B) {
		streamBenchRun(b, 100_000, func() sched.Policy { return sched.NewArena() })
	})
}

// BenchmarkSimRunDeepQueue guards the incremental scoring layer where it
// matters: a 50k-job streamed day on 2048 GPUs under the Arena policy —
// a backlog deep enough that a scheduler re-scoring the whole queue every
// round spent minutes per run (the full-rescan scheduler took ~45× the
// cached path's time here). The baseline gate holds the cached path to
// its recorded time.
func BenchmarkSimRunDeepQueue(b *testing.B) {
	b.Run("50k", func(b *testing.B) {
		streamBenchRun(b, 50_000, func() sched.Policy { return sched.NewArena() })
	})
}

// BenchmarkSimRunSlope is the third point of the streamed runs' size
// slope: the same streamed Helios-day pipeline as SimRunDeepQueue/50k and
// SimRun/100k at 200,000 jobs, so the cost per job between sizes can be
// read off one host. It is named outside the CI regexes and has no
// baseline: it exists to run on demand, and -short skips it.
func BenchmarkSimRunSlope(b *testing.B) {
	if testing.Short() {
		b.Skip("200k-job slope point skipped in -short mode")
	}
	b.Run("200k", func(b *testing.B) {
		streamBenchRun(b, 200_000, func() sched.Policy { return sched.NewArena() })
	})
}

// streamBenchSpec is the synthetic large cluster of the streaming
// benchmarks: 2048 GPUs across the two types the shared database knows.
func streamBenchSpec() hw.ClusterSpec {
	return hw.ClusterSpec{
		Name: "bench-xl",
		Regions: []hw.Region{
			{GPUType: "A40", Nodes: 512},
			{GPUType: "A10", Nodes: 512},
		},
	}
}

// streamBenchRun guards the event-heap core at scale: n jobs arrive from
// a streaming Helios-day generator (never materialized as a slice) and
// the simulator runs in streaming-summary mode, so memory stays O(active
// jobs) no matter how large n grows. A fresh single-use generator is
// built per iteration; its cost is a few RNG draws per job and stays in
// the timed region, as it would in any real streaming run. mkPolicy
// picks the scheduler.
func streamBenchRun(b *testing.B, n int, mkPolicy func() sched.Policy) {
	simBenchSetup()
	if simBenchErr != nil {
		b.Fatal(simBenchErr)
	}
	cfg := trace.HeliosDay(7, []string{"A40", "A10"}, n)
	cfg.Workloads = []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "GPT-2.6B", GlobalBatch: 128},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := trace.Stream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunCtx(context.Background(), sim.Config{
			Spec: streamBenchSpec(), Policy: mkPolicy(), Source: src,
			Streaming: true, DB: simBenchDB, RoundSeconds: 300,
			IncludeUnfinished: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res == nil || res.Summary.Total < n/2 {
			b.Fatalf("streaming run lost jobs: %+v", res)
		}
	}
}

// BenchmarkSimRunMillion is the scale smoke for the streaming core: one
// million generated jobs through the same pipeline as SimRun/100k, but
// under FCFS — the cheapest Assign — so what it proves is O(active jobs)
// engine memory at extreme scale, not policy search speed. It is
// deliberately named outside the BenchmarkSimRun$ CI regexes — it exists
// to run on demand, not to gate every commit — and -short skips it.
func BenchmarkSimRunMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("million-job smoke skipped in -short mode")
	}
	streamBenchRun(b, 1_000_000, func() sched.Policy { return policy.NewFCFS() })
}

// BenchmarkArenaAssign times the policy layer on its own: one
// ArenaPolicy.Assign on a frozen round of a streamed simulation
// (runFrozen), b.N calls on that round's live Context, so every call
// sees the same queue, running set, cluster and warm policy caches. One
// untimed call comes first: it feeds the launch FIFOs the round's queue
// changes, and the timed calls, on the same round, reuse them, so the
// pin times the steady state.
func BenchmarkArenaAssign(b *testing.B) {
	for _, c := range frozenRounds {
		b.Run(c.name, func(b *testing.B) {
			var first, last sched.Assignment
			var running, queued int
			runFrozen(b, c, func(p sched.Policy, ctx *sched.Context) sched.Assignment {
				running, queued = len(ctx.Running), len(ctx.Queued)
				first = p.Assign(ctx)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last = p.Assign(ctx)
				}
				b.StopTimer()
				return last
			})
			if !reflect.DeepEqual(first, last) {
				b.Fatalf("Assign is not repeatable on a frozen round: first call %+v, last %+v", first, last)
			}
			b.ReportMetric(float64(running), "running")
			b.ReportMetric(float64(queued), "queued")
		})
	}
}

// frozenRounds are the rounds BenchmarkArenaAssign and
// TestArenaAssignAllocs freeze. light is sim-helios-light's shape (70,000
// Helios jobs over 14 days on 128 A40 and 128 A10 nodes): round 2,600
// has 128 jobs running and 15 queued, so the scale-up and scale-down
// passes over the running set dominate. deep is sim-helios-deep's
// (12,500 jobs in one day on the same cluster): round 200 has 216 jobs
// running and 3,335 queued. allocs bounds the heap allocations of one
// Assign on the round (see TestArenaAssignAllocs).
var frozenRounds = []frozenShape{
	{name: "light", jobs: 70_000, days: 14, round: 2600, allocs: 7},
	{name: "deep", jobs: 12_500, days: 1, round: 200, allocs: 17},
}

type frozenShape struct {
	name   string
	jobs   int
	days   float64
	round  int
	allocs float64
}

// runFrozen runs c's streamed simulation under a fresh Arena policy up to
// round c.round, hands freeze the policy and that round's Context, and
// stops the simulation there: freeze's assignment is the round's. Running
// the simulation to the round costs about half a second.
func runFrozen(tb testing.TB, c frozenShape, freeze func(p sched.Policy, ctx *sched.Context) sched.Assignment) {
	tb.Helper()
	simBenchSetup()
	if simBenchErr != nil {
		tb.Fatal(simBenchErr)
	}
	cfg := trace.HeliosDay(7, []string{"A40", "A10"}, c.jobs)
	cfg.Duration = c.days * 86400
	cfg.Workloads = []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "GPT-2.6B", GlobalBatch: 128},
	}
	src, err := trace.Stream(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := sched.NewArena()
	f := &frozenRound{Policy: p, at: c.round, stop: cancel, freeze: func(ctx *sched.Context) sched.Assignment {
		return freeze(p, ctx)
	}}
	_, err = sim.RunCtx(ctx, sim.Config{
		Spec: hw.ClusterSpec{Name: "bench", Regions: []hw.Region{
			{GPUType: "A40", Nodes: 128}, {GPUType: "A10", Nodes: 128},
		}},
		Policy: f, Source: src, DB: simBenchDB, RoundSeconds: 300,
		Streaming: true, IncludeUnfinished: true, Seed: 7,
	})
	if !f.frozen {
		tb.Fatalf("the simulation ended after %d rounds, before round %d (err %v)", f.rounds, c.round, err)
	}
	if !errors.Is(err, context.Canceled) {
		tb.Fatalf("the simulation did not stop at the frozen round: %v", err)
	}
}

// frozenRound is runFrozen's policy wrapper: at its round `at` it
// returns freeze's assignment and cancels the simulation through stop.
// Every other round passes through.
type frozenRound struct {
	sched.Policy
	at     int
	stop   context.CancelFunc
	freeze func(ctx *sched.Context) sched.Assignment

	rounds int
	frozen bool
}

func (f *frozenRound) Assign(ctx *sched.Context) sched.Assignment {
	f.rounds++
	if f.rounds != f.at {
		return f.Policy.Assign(ctx)
	}
	asg := f.freeze(ctx)
	f.frozen = true
	f.stop()
	return asg
}

// TestArenaAssignAllocs pins the heap allocations of one
// ArenaPolicy.Assign on each frozen round: the call that feeds the launch
// FIFOs first, as in BenchmarkArenaAssign, then testing.AllocsPerRun over
// 20 calls. What a round still allocates is its Assignment and the Place
// map's growth (ARCHITECTURE.md, "The round's garbage"): 7 and 17 per
// call under Go 1.24's maps, the same on each of 20 single calls; 4–5
// and 13–16 under the former map implementation (GOEXPERIMENT=
// noswissmap), whose growth varies from call to call; 16 and 27 before
// the policy kept its round buffers. The count does not depend on the
// host, so this catches a regression no wall-clock gate can; a change
// that raises a bound says why.
func TestArenaAssignAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("frozen rounds skipped in -short mode")
	}
	for _, c := range frozenRounds {
		t.Run(c.name, func(t *testing.T) {
			var allocs float64
			runFrozen(t, c, func(p sched.Policy, ctx *sched.Context) sched.Assignment {
				asg := p.Assign(ctx)
				allocs = testing.AllocsPerRun(20, func() { p.Assign(ctx) })
				return asg
			})
			if allocs > c.allocs {
				t.Errorf("Assign allocates %.0f times per call on the frozen %s round, bound %.0f", allocs, c.name, c.allocs)
			}
		})
	}
}

// BenchmarkSimRunFaults guards the fault-injected simulation path: the
// same Cluster-A Arena run as BenchmarkSimRun, but with a stochastic
// crash/straggler model and checkpoint accounting active, so regressions
// in event interleaving or goodput bookkeeping surface here rather than
// in the failure-free benchmark.
func BenchmarkSimRunFaults(b *testing.B) {
	simBenchSetup()
	if simBenchErr != nil {
		b.Fatal(simBenchErr)
	}
	fc := &faults.Config{
		Model: &faults.Model{
			Default: faults.TypeFaults{MTBF: 6 * 3600, MTTR: 1800, SlowEvery: 12 * 3600},
		},
		CheckpointInterval: 900,
	}
	b.Run("arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunCtx(context.Background(), sim.Config{
				Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(simBenchJobs),
				DB: simBenchDB, RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
				Faults: fc,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res == nil {
				b.Fatal("nil simulation result")
			}
		}
	})
}

// BenchmarkServerScheduleRound guards the daemon's hot path: one
// journaled scheduling round — inbox drain, policy Assign over the full
// backlog, in-memory commit, digest, fsynced journal append — with
// 10,000 jobs pending on Cluster A. Iteration counts are inflated so no
// job finishes inside the timed rounds and every round sees the whole
// backlog; the 10k submits (one journal record each) happen before the
// timer starts.
func BenchmarkServerScheduleRound(b *testing.B) {
	simBenchSetup()
	if simBenchErr != nil {
		b.Fatal(simBenchErr)
	}
	jobs, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: 3 * 3600, NumJobs: 10000, Seed: 7,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("10k", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: simBenchDB,
			RoundSeconds: 300, Seed: 1,
			Store: st, Clock: clock.NewVirtual(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}()
		for _, j := range jobs {
			j.SubmitTime = 0   // the whole trace is backlog at round 0
			j.Iterations = 1e9 // nothing finishes inside the timed rounds
			if _, err := srv.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// recoverSession journals a 1,000-round daemon session on a fresh store,
// closed with the benchmark, and returns the configuration that restarts
// the daemon from it. The session has daemon-philly's shape (Philly
// arrivals at 2,500 jobs a day, the Arena policy, 300 s rounds, 256 A40
// and 256 A10 nodes).
func recoverSession(b *testing.B) (server.Config, int) {
	b.Helper()
	simBenchSetup()
	if simBenchErr != nil {
		b.Fatal(simBenchErr)
	}
	const rounds = 1000
	duration := float64(rounds-1) * 300
	jobs, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: duration, NumJobs: int(2500 * duration / 86400), Seed: 7,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	cfg := server.Config{
		Spec: hw.ClusterSpec{Name: "bench", Regions: []hw.Region{
			{GPUType: "A40", Nodes: 256}, {GPUType: "A10", Nodes: 256},
		}},
		Policy: sched.NewArena(), DB: simBenchDB, RoundSeconds: 300, Seed: 7,
		Store: st, Clock: clock.NewVirtual(),
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for round, next := 0, 0; round < rounds; round++ {
		for ; next < len(jobs) && jobs[next].SubmitTime <= float64(round)*cfg.RoundSeconds; next++ {
			if _, err := srv.Submit(jobs[next]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := srv.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	return cfg, rounds
}

// BenchmarkServerRecover guards the daemon's restart: server.New replays
// the journal of recoverSession's 1,000-round session — every record's
// frame checked, every submit re-applied, every round re-executed and
// its digest verified — and Close releases it. The session is built
// once, before the timer starts.
func BenchmarkServerRecover(b *testing.B) {
	cfg, rounds := recoverSession(b)
	b.Run("1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.Policy = sched.NewArena() // a restart starts with cold policy caches
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if srv.NextRound() != rounds {
				b.Fatalf("recovered at round %d, want %d", srv.NextRound(), rounds)
			}
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// statusWriter is a ResponseWriter that keeps the status and drops the
// body.
type statusWriter struct {
	header http.Header
	code   int
}

func (w *statusWriter) Header() http.Header { return w.header }

func (w *statusWriter) WriteHeader(code int) { w.code = code }

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkServerGetJob guards the daemon's poll: one GET /v1/jobs/{id}
// through the handler of a daemon recovered from recoverSession's
// session, for the jobs still queued or running when it closed, in turn
// — the jobs clients wait on. The requests are built before the timer
// starts and the writer drops the body, so an op is the server's work:
// routing, the job lookup, its view and its body.
func BenchmarkServerGetJob(b *testing.B) {
	cfg, _ := recoverSession(b)
	cfg.Policy = sched.NewArena()
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var reqs []*http.Request
	for _, v := range srv.Jobs() {
		if v.State == string(sched.StateQueued) || v.State == string(sched.StateRunning) {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID, nil))
		}
	}
	if len(reqs) == 0 {
		b.Fatal("the session left no job queued or running")
	}
	h := srv.Handler()
	w := &statusWriter{header: http.Header{}}
	get := func(r *http.Request) {
		w.code = 0
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			b.Fatalf("GET %s: status %d", r.URL.Path, w.code)
		}
	}
	b.Run("1k", func(b *testing.B) {
		for _, r := range reqs { // each job once, untimed
			get(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(reqs[i%len(reqs)])
		}
	})
}

func BenchmarkProfileGridPlan(b *testing.B) {
	eng := arena.NewEngine(42)
	ct, err := profiler.OfflineSampleComm(eng, []string{"A40"}, 16)
	if err != nil {
		b.Fatal(err)
	}
	g := arena.MustBuildModel("GPT-1.3B")
	gp, err := planner.New().PlanGrid(g, core.Grid{
		Workload: model.Workload{Model: "GPT-1.3B", GlobalBatch: 128},
		GPUType:  "A40", N: 4, S: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := profiler.New(eng, ct)
		if _, err := pr.ProfileGridPlan(g, gp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildModelGraphs(b *testing.B) {
	names := model.Names()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := model.BuildClustered(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
