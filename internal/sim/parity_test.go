package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// The event-heap core and the reference linear-scan core share every
// progress/accounting primitive and must produce bit-identical results —
// not approximately equal: both cores perform the same float operations
// in the same order, so reflect.DeepEqual on the summaries is the
// contract. These tests are the proof the ReferenceScan flag exists for.

// parityPolicies returns constructors for the paper's five schedulers.
// Constructors, not instances: some policies carry internal state across
// rounds, so each core run needs its own fresh policy.
func parityPolicies() map[string]func() sched.Policy {
	return map[string]func() sched.Policy{
		"fcfs":        func() sched.Policy { return policy.NewFCFS() },
		"gavel":       func() sched.Policy { return policy.NewGavel() },
		"elasticflow": func() sched.Policy { return policy.NewElasticFlow() },
		"sia":         func() sched.Policy { return policy.NewSia() },
		"arena":       func() sched.Policy { return sched.NewArena() },
	}
}

// runParityCfg is the shared divergence check: build a fresh config per
// run (policies carry state and Sources are single-use, so mkCfg must
// return independent configs), flip the oracle flag via set, and fail on
// any difference between reference and fast results.
func runParityCfg(t *testing.T, name string, mkCfg func() Config, set func(*Config, bool)) (*Result, *Result) {
	t.Helper()
	refCfg := mkCfg()
	set(&refCfg, true)
	ref, err := Run(refCfg)
	if err != nil {
		t.Fatalf("%s: reference run: %v", name, err)
	}
	fastCfg := mkCfg()
	set(&fastCfg, false)
	fast, err := Run(fastCfg)
	if err != nil {
		t.Fatalf("%s: fast run: %v", name, err)
	}
	if !reflect.DeepEqual(ref.Summary, fast.Summary) {
		t.Errorf("%s: summaries diverge between reference and fast paths:\nref:  %+v\nfast: %+v",
			name, ref.Summary, fast.Summary)
	}
	if !reflect.DeepEqual(outcomes(ref), outcomes(fast)) {
		t.Errorf("%s: per-job outcomes diverge between reference and fast paths", name)
	}
	return ref, fast
}

// setScan flips the event-core oracle; setScore flips the policy-scoring
// oracle. Each parity axis is tested with the other axis at its default.
func setScan(cfg *Config, ref bool)  { cfg.ReferenceScan = ref }
func setScore(cfg *Config, ref bool) { cfg.ReferenceScore = ref }

// runParity runs cfg over jobs through both cores (a fresh policy and
// source each) and fails on any divergence.
func runParity(t *testing.T, name string, mk func() sched.Policy, cfg Config, jobs []trace.Job) (*Result, *Result) {
	t.Helper()
	return runParityCfg(t, name, func() Config {
		c := cfg
		c.Policy, c.Source = mk(), trace.SliceSource(jobs)
		return c
	}, setScan)
}

// phillyStream returns a fresh streamed philly-6h source over the test
// database's workloads. Sources are single-use: call once per run.
func phillyStream(t *testing.T) *trace.Generator {
	t.Helper()
	cfg := trace.PhillySixHour(9, []string{"A40", "A10"})
	cfg.Workloads = []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "GPT-2.6B", GlobalBatch: 128},
	}
	src, err := trace.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// parityFaults is the random fault model both parity matrices share.
func parityFaults() *faults.Config {
	return &faults.Config{
		Model:              &faults.Model{Default: faults.TypeFaults{MTBF: 2 * 3600, MTTR: 1800, SlowEvery: 4 * 3600}},
		CheckpointInterval: 900,
	}
}

func TestScanHeapParityMatrix(t *testing.T) {
	// Every policy, with and without the random fault model, on the
	// standard 40-job slice trace AND a streamed philly-6h source, whose
	// arrivals spread across the whole span, so the cores must agree on
	// both.
	jobs := testJobs(t, 40)
	fm := parityFaults()
	for name, mk := range parityPolicies() {
		base := Config{
			Spec: hw.ClusterA(), DB: db(t),
			RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
		}
		runParity(t, name, mk, base, jobs)
		withFaults := base
		withFaults.Faults = fm
		withFaults.MaxRounds = 400
		runParity(t, name+"+faults", mk, withFaults, jobs)
		for _, faulted := range []bool{false, true} {
			faulted := faulted
			label := name + "+stream"
			if faulted {
				label += "+faults"
			}
			runParityCfg(t, label, func() Config {
				c := Config{
					Spec: hw.ClusterA(), Source: phillyStream(t), DB: db(t),
					RoundSeconds: 300, MaxRounds: 400,
					IncludeUnfinished: true, Seed: 1, Policy: mk(),
				}
				if faulted {
					c.Faults = fm
				}
				return c
			}, setScan)
		}
	}
}

func TestScoreParityMatrix(t *testing.T) {
	// The incremental-scoring twin of TestScanHeapParityMatrix: every
	// policy's score caches (launch ladders, failure memos, gain heaps,
	// round-scoped score tables) against its full-rescan reference, across
	// faults on/off and slice + streamed sources. Bit-identity, not
	// tolerance: both paths are required to run the same float operations
	// in the same order on the entries they actually score.
	jobs := testJobs(t, 40)
	fm := parityFaults()
	for name, mk := range parityPolicies() {
		for _, faulted := range []bool{false, true} {
			faulted := faulted
			suffix := ""
			if faulted {
				suffix = "+faults"
			}
			runParityCfg(t, name+suffix, func() Config {
				c := Config{
					Spec: hw.ClusterA(), Source: trace.SliceSource(jobs), DB: db(t),
					RoundSeconds: 300, IncludeUnfinished: true, Seed: 1, Policy: mk(),
				}
				if faulted {
					c.Faults = fm
					c.MaxRounds = 400
				}
				return c
			}, setScore)
			runParityCfg(t, name+"+stream"+suffix, func() Config {
				c := Config{
					Spec: hw.ClusterA(), Source: phillyStream(t), DB: db(t),
					RoundSeconds: 300, MaxRounds: 400,
					IncludeUnfinished: true, Seed: 1, Policy: mk(),
				}
				if faulted {
					c.Faults = fm
				}
				return c
			}, setScore)
		}
	}
}

func TestScoreParityArenaVariants(t *testing.T) {
	// Arena's ladders and memos key off the ablation knobs (DisableHetero
	// pins types, DisableElastic pins counts, ObjDeadline disables the
	// failure memo entirely) — every variant must match its own reference.
	jobs := testJobs(t, 40)
	for name, mk := range arenaVariants() {
		mk := mk
		runParityCfg(t, name, func() Config {
			return Config{
				Spec: hw.ClusterA(), Source: trace.SliceSource(jobs), DB: db(t),
				RoundSeconds: 300, IncludeUnfinished: true, Seed: 1, Policy: mk(),
			}
		}, setScore)
	}
}

func TestScoreParityDeepQueue(t *testing.T) {
	// A backlog several times cluster capacity: admission failures, victim
	// shrinks and memo clears all fire repeatedly — the regime the failure
	// memo and admission window exist for, and the easiest place for a
	// subtly unsound cache to diverge.
	jobs := testJobs(t, 120)
	for _, name := range []string{"arena", "sia", "elasticflow"} {
		mk := parityPolicies()[name]
		runParityCfg(t, name+"+deep", func() Config {
			return Config{
				Spec: hw.ClusterA(), Source: trace.SliceSource(jobs), DB: db(t),
				RoundSeconds: 300, IncludeUnfinished: true, Seed: 1, Policy: mk(),
			}
		}, setScore)
	}
}

func TestScanHeapParityFaultStorm(t *testing.T) {
	// A cluster-wide outage preempts every running job at the same
	// instant — the worst case for same-instant event ordering (many
	// crashes, completions, and requeues at one time point).
	fc := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600}
	for _, name := range []string{"fcfs", "arena"} {
		runParity(t, name+"+storm", parityPolicies()[name], Config{
			Spec: hw.ClusterA(), DB: db(t),
			RoundSeconds: 300, MaxRounds: 300,
			IncludeUnfinished: true, Seed: 1, Faults: fc,
		}, longJobs(24))
	}
}

func TestScanHeapParitySynthetic10k(t *testing.T) {
	// A 10k-job streaming synthetic trace, truncated by MaxRounds —
	// parity must hold mid-trace too, with the source only partially
	// drained at the horizon. Sources are single-use, so each core run
	// gets its own (deterministically identical) generator.
	mkCfg := func(ref bool) Config {
		src, err := trace.Stream(trace.HeliosDay(11, []string{"A40", "A10"}, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: src, DB: db(t),
			RoundSeconds: 300, MaxRounds: 400,
			IncludeUnfinished: true, Seed: 1, ReferenceScan: ref,
		}
	}
	scan, err := Run(mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Run(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan.Summary, heap.Summary) {
		t.Errorf("10k synthetic: summaries diverge between scan and heap cores")
	}
	if !reflect.DeepEqual(outcomes(scan), outcomes(heap)) {
		t.Errorf("10k synthetic: per-job outcomes diverge between scan and heap cores")
	}
	if scan.Total < 5000 {
		t.Errorf("10k synthetic saw only %d jobs inside the horizon", scan.Total)
	}
}

func TestSimSourceWithoutSpanNeedsMaxRounds(t *testing.T) {
	// A bare Source (no Spanner) gives the engine no horizon to derive.
	src := spanlessSource{}
	_, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), Source: src,
	})
	if err == nil {
		t.Fatal("span-less Source without MaxRounds accepted; want error")
	}
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), Source: src,
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 {
		t.Errorf("empty span-less source simulated %d jobs", res.Total)
	}
}

type spanlessSource struct{}

func (spanlessSource) Next() (trace.Job, bool) { return trace.Job{}, false }

func TestStreamingMatchesExact(t *testing.T) {
	// Streaming mode folds terminal jobs into aggregates instead of
	// retaining them: every count must match the exact run, means must
	// agree to float tolerance (the addition order differs only for
	// censored jobs), and the raw slices must stay nil.
	jobs := testJobs(t, 40)
	base := Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
	}
	exact, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sCfg := base
	sCfg.Source, sCfg.Streaming = trace.SliceSource(jobs), true
	stream, err := Run(sCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Jobs != nil || stream.JCTs != nil || stream.QueueTimes != nil {
		t.Errorf("streaming run retained per-job data (Jobs=%d JCTs=%d QueueTimes=%d)",
			len(stream.Jobs), len(stream.JCTs), len(stream.QueueTimes))
	}
	if stream.Total != exact.Total || stream.Finished != exact.Finished ||
		stream.Dropped != exact.Dropped || stream.Failed != exact.Failed ||
		stream.DeadlineSatisfied != exact.DeadlineSatisfied ||
		stream.DeadlineTotal != exact.DeadlineTotal ||
		stream.Preemptions != exact.Preemptions || stream.Restarts != exact.Restarts {
		t.Errorf("streaming counters diverge from exact run:\nexact:  %+v\nstream: %+v",
			exact.Summary, stream.Summary)
	}
	approx := func(name string, a, b float64) {
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Errorf("%s: exact %g vs streaming %g", name, a, b)
		}
	}
	approx("AvgJCT", exact.AvgJCT, stream.AvgJCT)
	approx("AvgQueue", exact.AvgQueue, stream.AvgQueue)
	approx("GoodputGPUHours", exact.GoodputGPUHours, stream.GoodputGPUHours)
	approx("AvgReschedules", exact.AvgReschedules, stream.AvgReschedules)
	// P50/P90 are P² sketch estimates; for a few dozen observations they
	// land near — not on — the exact order statistics.
	if exact.P90JCT > 0 {
		if r := stream.P90JCT / exact.P90JCT; r < 0.5 || r > 2 {
			t.Errorf("P90JCT sketch %g implausibly far from exact %g", stream.P90JCT, exact.P90JCT)
		}
	}
}

func TestRunStopsWhenArrivalsBeyondHorizon(t *testing.T) {
	// Regression for the stop condition: a trace whose remaining
	// arrivals all land beyond the round budget used to keep the loop
	// alive (pending non-empty -> not Done) for the full MaxRounds —
	// hundreds of empty rounds deciding nothing. The loop must now stop
	// as soon as the world is provably idle until past the horizon.
	jobs := []trace.Job{{
		ID: "far-future", Workload: testJobs(t, 1)[0].Workload,
		Iterations: 100, ReqGPUs: 2, ReqType: "A40", Priority: 1,
		SubmitTime: 1e7,
	}}
	rounds := 0
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
		Progress: func(core.Event) { rounds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= 400 {
		t.Errorf("idle run burned all %d rounds; want early stop", rounds)
	}
	if rounds > 10 {
		t.Errorf("idle run took %d rounds to stop; want a handful", rounds)
	}
	if res.Total != 0 {
		t.Errorf("job beyond the horizon counted into Total=%d", res.Total)
	}
}

func TestEngineSubmitStampsNow(t *testing.T) {
	e, err := NewEngine(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := testJobs(t, 1)[0].Workload
	j := e.Submit(trace.Job{ID: "live", Workload: w, Iterations: 100, ReqGPUs: 2, ReqType: "A40"}, 1234)
	if j.Trace.SubmitTime != 1234 {
		t.Errorf("zero SubmitTime not stamped with now: got %g", j.Trace.SubmitTime)
	}
	j2 := e.Submit(trace.Job{ID: "replay", Workload: w, Iterations: 100, ReqGPUs: 2, ReqType: "A40", SubmitTime: 77}, 1234)
	if j2.Trace.SubmitTime != 77 {
		t.Errorf("explicit SubmitTime overwritten: got %g", j2.Trace.SubmitTime)
	}
}
