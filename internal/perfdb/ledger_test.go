package perfdb

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/model"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/work.json from the current code")

const workPath = "testdata/work.json"

// ledgerRow is the measurement cache's work on one build.
type ledgerRow struct {
	StageHits    int `json:"stage_hits"`
	StageMisses  int `json:"stage_misses"`
	StageOpSteps int `json:"stage_op_steps"`
	PlanHits     int `json:"plan_hits"`
	PlanMisses   int `json:"plan_misses"`
}

// TestWorkLedger builds TestCachedBuildMatchesUncachedSerial's database
// serially and compares the summed counters of its per-model
// measurement caches with testdata/work.json exactly: stage hits and
// misses, the op measurements summed into the misses, and plan hits and
// misses. The counts are deterministic, so a change that moves one, on
// any host, says so here; a change meant to move them re-records the
// file with -update and lists the counts that moved.
func TestWorkLedger(t *testing.T) {
	opts := storeTestOpts(storeTestWorkloads...)
	opts.Workers = 1
	var row ledgerRow
	opts.onCache = func(c *evalcache.Cache) {
		s := c.Stats()
		row.StageHits += s.StageHits
		row.StageMisses += s.StageMisses
		row.StageOpSteps += s.StageOpSteps
		row.PlanHits += s.PlanHits
		row.PlanMisses += s.PlanMisses
	}
	d, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbDigest(t, d); got != uncachedSerialDigest {
		t.Fatalf("database digest %s, want %s", got, uncachedSerialDigest)
	}
	got := map[string]ledgerRow{"digest-build": row}
	if *updateLedger {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]ledgerRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: work %+v, ledger %+v", name, g, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d builds, %d in the ledger", len(got), len(want))
	}
}

// TestBuildSharesModelCacheAcrossBatches builds two batch sizes of one
// model together, on two workers, and each alone. Together they measure
// through one cache, which serves the stage shapes whose micro-batch
// samples the two batch sizes share, so it fills fewer stage slots than
// the two lone builds; the columns are the lone builds' bit for bit.
func TestBuildSharesModelCacheAcrossBatches(t *testing.T) {
	ws := []model.Workload{{Model: "GPT-1.3B", GlobalBatch: 128}, {Model: "GPT-1.3B", GlobalBatch: 256}}
	build := func(workers int, ws ...model.Workload) (*DB, []evalcache.Stats) {
		t.Helper()
		opts := storeTestOpts(ws...)
		opts.Workers = workers
		var stats []evalcache.Stats
		opts.onCache = func(c *evalcache.Cache) { stats = append(stats, c.Stats()) }
		d, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
		if err != nil {
			t.Fatal(err)
		}
		return d, stats
	}
	got, shared := build(2, ws...)
	if len(shared) != 1 {
		t.Fatalf("%d caches for one model's build, want 1", len(shared))
	}
	want, lone := build(1, ws[0])
	b, st := build(1, ws[1])
	want.cols[ws[1]] = b.cols[ws[1]]
	equalDBExact(t, got, want)
	if sum := lone[0].StageMisses + st[0].StageMisses; shared[0].StageMisses >= sum {
		t.Errorf("the shared cache filled %d stage slots, the lone builds %d: no stage was shared", shared[0].StageMisses, sum)
	}
}
