package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json and testdata/work.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenRow is one job's end state in a result digest.
type goldenRow struct {
	ID                                string
	State                             sched.JobState
	FinishedAt, LaunchedAt            float64
	Alloc                             sched.Alloc
	Resched                           int
	Remaining                         float64
	Preemptions, Restarts, Migrations int
}

// resultDigest hashes everything a Result reports: the summary, the
// horizon, the order of Result.Jobs and every job's end state. JSON
// prints each float64 in its shortest round-tripping form, so equal
// digests mean bit-identical results.
func resultDigest(t *testing.T, r *Result) string {
	t.Helper()
	rows := make([]goldenRow, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		rows = append(rows, goldenRow{
			ID: j.Trace.ID, State: j.State,
			FinishedAt: j.FinishedAt, LaunchedAt: j.LaunchedAt,
			Alloc: j.Alloc, Resched: j.Resched, Remaining: j.RemainingSamples,
			Preemptions: j.Preemptions, Restarts: j.Restarts, Migrations: j.Migrations,
		})
	}
	data, err := json.Marshal(struct {
		Summary metrics.Summary
		Horizon float64
		Jobs    []goldenRow
	}{r.Summary, r.Horizon, rows})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldenConfigs are the pinned runs, each in exact and in streaming-
// summary mode: every policy on the 40-job slice trace and on a streamed
// philly-6h trace, with and without the random fault model; every Arena
// ablation variant; the same-instant outage over 24 identical-arrival
// jobs; a 120-job backlog several times cluster capacity for the three
// policies whose score caches it stresses; and a 10k-job streamed Helios
// day cut off mid-trace by MaxRounds. Each call returns fresh policies
// and single-use sources.
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	cfgs := exactGoldenConfigs(t)
	for name, c := range exactGoldenConfigs(t) {
		c.Streaming = true
		cfgs[name+"+streaming"] = c
	}
	return cfgs
}

// exactGoldenConfigs builds one fresh set of the pinned runs in exact mode.
func exactGoldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	jobs := testJobs(t, 40)
	slice := func(p sched.Policy, js []trace.Job) Config {
		return Config{
			Spec: hw.ClusterA(), Policy: p, Source: trace.SliceSource(js), DB: db(t),
			RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
		}
	}
	cfgs := map[string]Config{}
	for name, mk := range parityPolicies() {
		cfgs[name] = slice(mk(), jobs)
		c := slice(mk(), jobs)
		c.Faults, c.MaxRounds = parityFaults(), 400
		cfgs[name+"+faults"] = c
		for _, faulted := range []bool{false, true} {
			c := Config{
				Spec: hw.ClusterA(), Policy: mk(), Source: phillyStream(t), DB: db(t),
				RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
			}
			key := "philly-6h/" + name
			if faulted {
				c.Faults = parityFaults()
				key += "+faults"
			}
			cfgs[key] = c
		}
	}
	for name, mk := range arenaVariants() {
		if name != "arena" { // the default variant is pinned above
			cfgs["variant/"+name] = slice(mk(), jobs)
		}
	}
	storm := &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600}
	for _, name := range []string{"fcfs", "arena"} {
		c := slice(parityPolicies()[name](), longJobs(24))
		c.Faults, c.MaxRounds = storm, 300
		cfgs[name+"+storm"] = c
	}
	deep := testJobs(t, 120)
	for _, name := range []string{"arena", "sia", "elasticflow"} {
		cfgs["deep/"+name] = slice(parityPolicies()[name](), deep)
	}
	src, err := trace.Stream(trace.HeliosDay(11, []string{"A40", "A10"}, 10000))
	if err != nil {
		t.Fatal(err)
	}
	cfgs["helios-10k/fcfs"] = Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: src, DB: db(t),
		RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
	}
	return cfgs
}

// matchGoldens runs every golden configuration whose policy wrap
// accepts (a nil wrap result skips it) under the wrapped policy, and
// requires each run's result digest to stay golden. It returns the runs
// per policy name.
func matchGoldens(t *testing.T, wrap func(p sched.Policy) sched.Policy) map[string]int {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	for name, cfg := range goldenConfigs(t) {
		wrapped := wrap(cfg.Policy)
		if wrapped == nil {
			continue
		}
		runs[cfg.Policy.Name()]++
		cfg.Policy = wrapped
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resultDigest(t, res); got != golden[name] {
			t.Errorf("%s: result digest %s, golden %s", name, got, golden[name])
		}
	}
	return runs
}

// parityPolicies returns constructors for the paper's five schedulers.
// Constructors, not instances: some policies carry internal state across
// rounds, so each run needs its own fresh policy.
func parityPolicies() map[string]func() sched.Policy {
	return map[string]func() sched.Policy{
		"fcfs":        func() sched.Policy { return policy.NewFCFS() },
		"gavel":       func() sched.Policy { return policy.NewGavel() },
		"elasticflow": func() sched.Policy { return policy.NewElasticFlow() },
		"sia":         func() sched.Policy { return policy.NewSia() },
		"arena":       func() sched.Policy { return sched.NewArena() },
	}
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

// parityFaults is the random fault model of the faulted golden runs.
func parityFaults() *faults.Config {
	return &faults.Config{
		Model:              &faults.Model{Default: faults.TypeFaults{MTBF: 2 * 3600, MTTR: 1800, SlowEvery: 4 * 3600}},
		CheckpointInterval: 900,
	}
}

// TestSliceSourceMatchesJobs pins simulation results to digests committed
// under testdata/, and is the proof that each simulator layer's single
// production path is correct. The first 19 exact-mode entries were
// recorded through the removed Config.Jobs staging path, so SliceSource
// reproducing them bit for bit proves the two paths interchangeable. The
// rest were recorded while the linear-scan event core and the policies'
// full per-round rescans still ran beside the event heap and the score
// caches, and every entry then matched them bit for bit; reproducing the
// digests is what now stands in for those reference paths. Regenerate
// with -update only for a change that is meant to alter simulation
// results.
//
// The digests are amd64 values: the Go spec lets other architectures
// fuse a multiply and an add into one rounding, which can move the last
// bit of a float result.
func TestSliceSourceMatchesJobs(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range goldenConfigs(t) {
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = resultDigest(t, res)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: result digest %s, golden %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, %d goldens", len(got), len(want))
	}
}
