package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/sched/schedtest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// TestRoundDigestsMatchGolden pins the daemon's decisions round by round:
// the assignment digest of every round an uninterrupted driveScript run
// fires, for each of the five policies over 20 rounds, against digests
// committed under testdata/. Regenerate with -update only for a change
// that is meant to alter scheduling decisions.
func TestRoundDigestsMatchGolden(t *testing.T) {
	jobs := testJobs(t, 30)
	got := map[string][]string{}
	for name, mk := range map[string]func() sched.Policy{
		"fcfs":        func() sched.Policy { return policy.NewFCFS() },
		"gavel":       func() sched.Policy { return policy.NewGavel() },
		"elasticflow": func() sched.Policy { return policy.NewElasticFlow() },
		"sia":         func() sched.Policy { return policy.NewSia() },
		"arena":       func() sched.Policy { return sched.NewArena() },
	} {
		srv, st := newServer(t, t.TempDir(), mk())
		got[name] = driveScript(t, srv, jobs, 20)
		srv.Close()
		st.Close()
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: round digests %v, golden %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d policies, %d goldens", len(got), len(want))
	}
}

// TestFedQueueMatchesRebuilt runs the daemon's scripted session —
// arrivals between rounds and a cancel — with Arena fed by the engine's
// queue changes beside a twin that rebuilds its launch FIFOs from Queued
// every round (schedtest.MatchRebuilt), so every round must decide the
// same. Halfway through, the daemon restarts from its journal with the
// same pair of instances, as a session that keeps its policy across
// restarts does: the replay runs a second engine. After the script, late
// submissions arrive, stamped hours before the round that admits them,
// and two more rounds run. The scripted rounds must match the golden
// digests.
func TestFedQueueMatchesRebuilt(t *testing.T) {
	jobs := testJobs(t, 30)
	pair := schedtest.MatchRebuilt(t, sched.NewArena(), sched.NewArena())
	dir := t.TempDir()
	srv, st := newServer(t, dir, pair)
	got := driveScript(t, srv, jobs, 10)
	srv.Close()
	st.Close()

	srv, st = newServer(t, dir, pair)
	defer st.Close()
	defer srv.Close()
	got = append(got, driveScript(t, srv, jobs, 20)...)
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, golden["arena"]) {
		t.Fatalf("round digests %v, golden %v", got, golden["arena"])
	}

	for i, tj := range jobs[:6] {
		tj.ID = fmt.Sprintf("late-%d", i)
		tj.SubmitTime = 600 * float64(1+i%3)
		if _, err := srv.Submit(tj); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
}
