package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

var (
	dbOnce sync.Once
	testDB *perfdb.DB
	dbErr  error
)

func db(t testing.TB) *perfdb.DB {
	t.Helper()
	dbOnce.Do(func() {
		testDB, dbErr = perfdb.BuildCtx(context.Background(), exec.NewEngine(42), perfdb.Options{
			GPUTypes: []string{"A40", "A10"},
			MaxN:     16,
			Workloads: []model.Workload{
				{Model: "WRes-1B", GlobalBatch: 256},
				{Model: "GPT-1.3B", GlobalBatch: 128},
			},
		})
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func testJobs(t testing.TB, n int) []trace.Job {
	t.Helper()
	jobs, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: 3 * 3600, NumJobs: n, Seed: 7,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16,
		Workloads: []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// newServer opens a store in dir and builds a server on it; the store is
// closed with the test.
func newServer(t testing.TB, dir string, p sched.Policy) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Spec: hw.ClusterA(), Policy: p, DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st, Clock: clock.NewVirtual(),
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, st
}

// driveScript runs a fixed submit/cancel/round script against a server
// from its current round through round `until` (exclusive), returning
// the digest of every assignment fired. The script is a function of the
// round index, so an interrupted server resumes it mid-way.
func driveScript(t testing.TB, srv *Server, jobs []trace.Job, until int) []string {
	t.Helper()
	var digests []string
	for srv.NextRound() < until {
		round := srv.NextRound()
		// Submission schedule: ten jobs up front, ten before round 4,
		// ten before round 8 — arrivals interleaved with scheduling, the
		// daemon's actual regime.
		for _, batch := range []struct{ round, lo, hi int }{{0, 0, 10}, {4, 10, 20}, {8, 20, 30}} {
			if round == batch.round {
				for _, tj := range jobs[batch.lo:batch.hi] {
					if _, err := srv.Submit(tj); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// One cancellation mid-stream.
		if round == 6 {
			if err := srv.Cancel(jobs[12].ID); err != nil {
				t.Fatal(err)
			}
		}
		asg, err := srv.Step()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, jsonDigest(idKeyed(asg)))
	}
	return digests
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	jobs := testJobs(t, 30)
	const crashRound, lastRound = 11, 20

	// Reference: one uninterrupted run.
	ref, refStore := newServer(t, t.TempDir(), sched.NewArena())
	defer refStore.Close()
	defer ref.Close()
	want := driveScript(t, ref, jobs, lastRound)

	// Victim: same script, but the process dies mid-round at crashRound —
	// after the round committed in memory, before it reached the journal.
	// That is the widest possible recovery window: the journal knows
	// nothing of the round, and restart must re-derive it.
	dir := t.TempDir()
	victim, victimStore := newServer(t, dir, sched.NewArena())
	got := driveScript(t, victim, jobs, crashRound)

	crashed := errors.New("simulated crash")
	crashBeforeCommit = func() error { return crashed }
	_, err := victim.Step()
	crashBeforeCommit = nil
	if !errors.Is(err, crashed) {
		t.Fatalf("crash hook: %v", err)
	}
	// The dead process's in-memory state is gone; only journal + lock
	// release survive a real crash.
	victim.Close()
	victimStore.Close()

	// Restart: replay the journal, resume the script, finish the run.
	revived, revivedStore := newServer(t, dir, sched.NewArena())
	defer revivedStore.Close()
	defer revived.Close()
	if revived.NextRound() != crashRound {
		t.Fatalf("revived server resumes at round %d, want %d (the crashed round was never journaled)", revived.NextRound(), crashRound)
	}
	got = append(got, driveScript(t, revived, jobs, lastRound)...)

	if len(got) != len(want) {
		t.Fatalf("interrupted run fired %d rounds, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: assignment digest %s after crash+recovery, want %s (scheduling diverged)", i, got[i], want[i])
		}
	}
}

func TestRecoveredStateMatchesJobLevel(t *testing.T) {
	jobs := testJobs(t, 30)
	dir := t.TempDir()
	srv, st := newServer(t, dir, sched.NewArena())
	driveScript(t, srv, jobs, 10)
	wantJobs := srv.Jobs()
	wantStats := srv.Stats()
	srv.Close()
	st.Close()

	revived, st2 := newServer(t, dir, sched.NewArena())
	defer st2.Close()
	defer revived.Close()
	gotJobs := revived.Jobs()
	gotStats := revived.Stats()
	// Clock reading differs across instances; everything else must not.
	wantStats.Now, gotStats.Now = 0, 0
	if gotStats != wantStats {
		t.Fatalf("recovered stats %+v, want %+v", gotStats, wantStats)
	}
	if len(gotJobs) != len(wantJobs) {
		t.Fatalf("recovered %d jobs, want %d", len(gotJobs), len(wantJobs))
	}
	for i := range wantJobs {
		if gotJobs[i] != wantJobs[i] {
			t.Fatalf("job %d recovered as %+v, want %+v", i, gotJobs[i], wantJobs[i])
		}
	}
}

// journalFile is the on-disk journal behind a server store.
func journalFile(dir string) string {
	return filepath.Join(dir, "journal", "server.log")
}

func TestServerRefusesTamperedJournal(t *testing.T) {
	jobs := testJobs(t, 30)
	dir := t.TempDir()
	srv, st := newServer(t, dir, sched.NewArena())
	driveScript(t, srv, jobs, 5)
	srv.Close()
	st.Close()

	data, err := os.ReadFile(journalFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"kind":"round"`), []byte(`"kind":"rownd"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(journalFile(dir), tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, err = New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st2, Clock: clock.NewVirtual()})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("tampered journal started with %v, want ErrCorrupt", err)
	}
}

func TestServerRefusesTruncatedJournal(t *testing.T) {
	jobs := testJobs(t, 30)
	dir := t.TempDir()
	srv, st := newServer(t, dir, sched.NewArena())
	driveScript(t, srv, jobs, 5)
	srv.Close()
	st.Close()

	data, err := os.ReadFile(journalFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalFile(dir), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, err = New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st2, Clock: clock.NewVirtual()})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("truncated journal started with %v, want ErrCorrupt", err)
	}
}

func TestServerRefusesConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	srv, st := newServer(t, dir, sched.NewArena())
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, err = New(Config{Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st2, Clock: clock.NewVirtual()})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("policy switch started with %v, want ErrConfig", err)
	}
}

func TestServerRefusesDivergentDigest(t *testing.T) {
	// A journal that frames correctly but records a decision this binary
	// does not reproduce: built by hand through the store API.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := st.OpenJournal("server")
	if err != nil {
		t.Fatal(err)
	}
	cfgRec := record{Kind: kindConfig, Policy: sched.NewArena().Name(),
		RoundSeconds: 300, Seed: 1, Cluster: jsonDigest(hw.ClusterA())}
	if err := j.Append(cfgRec); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(record{Kind: kindRound, Round: 0, Now: 0, Digest: "deadbeefdeadbeef"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, err = New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st2, Clock: clock.NewVirtual()})
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("divergent digest started with %v, want ErrReplay", err)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewStepped()
	srv, err := New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	// Release two rounds and wait for them to commit.
	waitRound := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for srv.NextRound() < n {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never fired", n-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRound(1) // round 0 fires at t=0
	clk.Set(300)
	waitRound(2)

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Both rounds were journaled before Run returned (flush-on-shutdown).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2, err := New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
		RoundSeconds: 300, Seed: 1, Store: st2, Clock: clock.NewVirtual()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.NextRound() != 2 {
		t.Fatalf("journal holds %d rounds, want 2", srv2.NextRound())
	}

	// No goroutines left behind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before Run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHTTPAPI(t *testing.T) {
	srv, st := newServer(t, t.TempDir(), policy.NewFCFS())
	defer st.Close()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Submit.
	resp, body := post(`{"ID":"j1","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000,"ReqGPUs":2,"ReqType":"A40","Priority":1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var jv JobView
	if err := json.Unmarshal(body, &jv); err != nil {
		t.Fatal(err)
	}
	if jv.ID != "j1" || jv.State != string(sched.StateQueued) {
		t.Fatalf("submit echoed %+v", jv)
	}

	// Generated IDs.
	resp, body = post(`{"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit without ID: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &jv)
	if jv.ID == "" || jv.ID == "j1" {
		t.Fatalf("generated ID %q", jv.ID)
	}

	// Duplicate → 409; unknown workload → 400; garbage → 400.
	if resp, _ := post(`{"ID":"j1","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"ID":"jx","Workload":{"Model":"NoSuchModel","GlobalBatch":1},"Iterations":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"ID":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}

	// A round launches the FCFS job.
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	resp, body = get("/v1/jobs/j1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job: %d", resp.StatusCode)
	}
	json.Unmarshal(body, &jv)
	if jv.State != string(sched.StateRunning) || jv.GPUs == 0 {
		t.Fatalf("after one round, j1 = %+v", jv)
	}
	if want := respond(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, jv) }); string(body) != want.body {
		t.Fatalf("get job body %q, json.Encoder writes %q", body, want.body)
	}
	if resp, _ = get("/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown job: %d", resp.StatusCode)
	}

	// List.
	resp, body = get("/v1/jobs")
	var list []JobView
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list returned %d jobs", len(list))
	}
	if want := respond(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, list) }); string(body) != want.body {
		t.Fatalf("list body %q, json.Encoder writes %q", body, want.body)
	}

	// Cancel applies at the next round.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	resp, body = get("/v1/jobs/j1")
	json.Unmarshal(body, &jv)
	if jv.State != string(sched.StateDropped) {
		t.Fatalf("after cancel round, j1 = %+v", jv)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j1", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of done job: %d", resp.StatusCode)
	}

	// Stats and metrics.
	resp, body = get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var sv StatsView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Rounds != 2 || sv.Dropped != 1 || sv.Policy == "" {
		t.Fatalf("stats = %+v", sv)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "arena_rounds_total 2") {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	checkMetricTypes(t, string(body))
	if resp, _ = get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// checkMetricTypes checks a Prometheus exposition: every sample follows
// exactly one TYPE line for its name, a counter for a _total name and a
// gauge otherwise, and no TYPE line declares a name without a sample.
func checkMetricTypes(t *testing.T, body string) {
	t.Helper()
	types := map[string][]string{}
	typeLines, samples := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			types[fields[2]] = append(types[fields[2]], fields[3])
			typeLines++
			continue
		}
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			t.Fatalf("metrics line %q is neither a TYPE line nor a sample", line)
		}
		name := fields[0]
		want := "gauge"
		if strings.HasSuffix(name, "_total") {
			want = "counter"
		}
		if got := types[name]; len(got) != 1 || got[0] != want {
			t.Fatalf("sample %s follows TYPE lines %v, want exactly one %s", name, got, want)
		}
		samples++
	}
	if samples == 0 || typeLines != samples || len(types) != samples {
		t.Fatalf("%d samples, %d TYPE lines, %d declared names", samples, typeLines, len(types))
	}
}

// TestSubmitRejectsTrailingData posts bodies with data after the job
// object. Each gets 400 wrapping ErrBadJob and registers nothing: the
// server lists no job, and a restart from its journal replays none.
// Trailing white space is not data.
func TestSubmitRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	srv, st := newServer(t, dir, policy.NewFCFS())
	ts := httptest.NewServer(srv.Handler())
	job := func(id string) string {
		return `{"ID":"` + id + `","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000}`
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, body := range []string{
		job("a") + job("b") + "trailing",
		job("a") + job("b"),
		job("a") + " trailing",
		job("a") + "}",
		job("a") + "]",
		job("a") + "null",
		job("a") + " 1",
	} {
		code, msg := post(body)
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, ErrBadJob.Error()) {
			t.Errorf("POST %s: %d %q, want 400 wrapping %q", body, code, msg, ErrBadJob)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submits registered %+v", jobs)
	}
	if code, msg := post(job("c") + " \n\t "); code != http.StatusCreated {
		t.Fatalf("a job followed by white space: %d %q, want 201", code, msg)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	srv, st = newServer(t, dir, policy.NewFCFS())
	defer st.Close()
	defer srv.Close()
	if jobs := srv.Jobs(); len(jobs) != 1 || jobs[0].ID != "c" {
		t.Fatalf("the journal replayed %+v, want job c alone", jobs)
	}
}

// TestSubmitRejectsUnplaceableGPUCounts: the database measures only
// powers of two up to the per-job cap (its MaxN, 16, here), so any other
// request would wait in the queue forever, and under FCFS block every
// job behind it. The API answers 400 instead and registers nothing.
func TestSubmitRejectsUnplaceableGPUCounts(t *testing.T) {
	srv, st := newServer(t, t.TempDir(), policy.NewFCFS())
	defer st.Close()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(id string, gpus int) (int, string) {
		t.Helper()
		body := fmt.Sprintf(`{"ID":%q,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000,"ReqGPUs":%d}`, id, gpus)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, gpus := range []int{3, 32, 1000} {
		code, msg := post(fmt.Sprintf("r%d", gpus), gpus)
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, ErrBadJob.Error()) {
			t.Errorf("ReqGPUs %d: %d %q, want 400 wrapping %q", gpus, code, msg, ErrBadJob)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submits registered %+v", jobs)
	}
	if code, msg := post("a16", 16); code != http.StatusCreated {
		t.Fatalf("ReqGPUs 16: %d %q, want 201", code, msg)
	}
}

func TestSubmitStampsClockTime(t *testing.T) {
	srv, st := newServer(t, t.TempDir(), policy.NewFCFS())
	defer st.Close()
	defer srv.Close()
	// Advance the run timeline by stepping two rounds (nominal instants 0
	// and 300), then submit without a SubmitTime: the job must be stamped
	// with the timeline's current instant, not zero.
	srv.Step()
	srv.Step()
	tj, err := srv.Submit(trace.Job{Workload: model.Workload{Model: "WRes-1B", GlobalBatch: 256}, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tj.SubmitTime != 300 {
		t.Fatalf("SubmitTime stamped %v, want 300", tj.SubmitTime)
	}
}
