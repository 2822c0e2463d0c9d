package perfdb

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
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
// serially through one measurement cache and compares the cache's
// counters with testdata/work.json exactly: stage hits and misses, the
// op measurements summed into the misses, and plan hits and misses. The
// counts are deterministic, so a change that moves one, on any host, says
// so here; a change meant to move them re-records the file with -update
// and lists the counts that moved.
func TestWorkLedger(t *testing.T) {
	eng := exec.NewEngine(42)
	opts := storeTestOpts(storeTestWorkloads...)
	opts.Workers = 1
	opts.EvalCache = evalcache.New(eng)
	d, err := BuildCtx(context.Background(), eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbDigest(t, d); got != uncachedSerialDigest {
		t.Fatalf("database digest %s, want %s", got, uncachedSerialDigest)
	}
	s := opts.EvalCache.Stats()
	got := map[string]ledgerRow{"digest-build": {
		StageHits: s.StageHits, StageMisses: s.StageMisses, StageOpSteps: s.StageOpSteps,
		PlanHits: s.PlanHits, PlanMisses: s.PlanMisses,
	}}
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
