package sim

import (
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
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

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

// goldenConfigs are the pinned runs: every policy on the 40-job slice
// trace with and without the random fault model, every Arena ablation
// variant, and the same-instant outage over 24 identical-arrival jobs.
// Each call returns fresh policies and single-use sources.
func goldenConfigs(t *testing.T) map[string]Config {
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
	return cfgs
}

// TestSliceSourceMatchesJobs pins simulation results to digests committed
// under testdata/. They were recorded through the removed Config.Jobs
// staging path, so SliceSource reproducing them bit for bit is the proof
// that the two paths were interchangeable. Regenerate with -update only
// for a change that is meant to alter simulation results.
func TestSliceSourceMatchesJobs(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range goldenConfigs(t) {
		res, err := Run(cfg)
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
