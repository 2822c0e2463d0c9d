package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/rng"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/server"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// daemonSim is the scheduler daemon across a restart. Its set-up is a
// journaled session: a Philly-shaped trace driven through the HTTP API
// one round at a time on a virtual clock, every submit and round
// fsynced. Each pass then restarts a daemon from that journal and
// queries it. A pass writes nothing to disk: fsync latency on a shared
// host swings by several times for tens of seconds, and would otherwise
// set the spread of every timing this workload reports.
type daemonSim struct {
	jobs    int
	days    float64
	nodes   int
	gets    int // job queries per round of the session
	queries int // job queries per pass, on the recovered daemon
}

// phillyDaemon journals every submit and round with an fsync, queries
// jobs between rounds, and replays the whole journal on recovery.
var phillyDaemon = daemonSim{jobs: 5_000, days: 2, nodes: 256, gets: 8, queries: 1_000}

// journalProbeAppends is how many round-sized records the journal probe
// appends in a traced run.
const journalProbeAppends = 2000

func (d daemonSim) traceConfig(seed uint64, scale float64) trace.Config {
	return trace.Config{
		Kind: trace.Philly, Duration: d.days * 86400 * scale,
		NumJobs: max(1, int(float64(d.jobs)*scale)), Seed: seed,
		GPUTypes: setupDB.types, MaxGPUs: 16, Workloads: setupDB.workloads,
	}
}

// session is one journaled daemon session: the store holding its
// journal, the configuration a restart must repeat, and what it saw.
type session struct {
	dir                 string
	st                  *store.Store
	cfg                 server.Config
	ids                 []string         // submitted jobs, in order
	active              []string         // jobs queued or running at close
	stats               server.StatsView // at close
	submit, query, step []float64        // ms per call
	attempted, failed   int
	pol                 *timedPolicy // traced session only
}

// close releases the store and deletes it. A nil session is a no-op.
func (s *session) close() {
	if s == nil {
		return
	}
	s.st.Close()
	os.RemoveAll(s.dir)
}

func (s *session) count(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

// runSession runs one session on a fresh store and closes the daemon.
// All load comes from this goroutine through the in-process handler; no
// sockets are opened.
func (d daemonSim) runSession(c config, db *perfdb.DB, rec *recorder) (_ *session, err error) {
	dir, err := os.MkdirTemp(c.dir, "daemon-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &session{dir: dir, st: st}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	gen, err := trace.Stream(d.traceConfig(c.seed, c.scale))
	if err != nil {
		return nil, err
	}

	var src trace.Source = gen
	var pol sched.Policy = sched.NewArena()
	if rec != nil {
		src = timedSource{gen, rec}
		s.pol = &timedPolicy{Policy: pol, rec: rec, name: "sched.assign", pre: "server.step.pre_assign", post: "server.step.post_assign"}
		pol = s.pol
	}
	s.cfg = server.Config{
		Spec: cluster(d.nodes), Policy: pol, DB: db, RoundSeconds: 300,
		Seed: c.seed, Store: st, Clock: clock.NewVirtual(),
	}

	rec.begin("setup")
	defer rec.end("setup")
	srv, err := server.New(s.cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	pick := rng.Derive(c.seed, rng.HashString("benchmark-job-queries"))
	next, more := src.Next()
	rounds := int(d.traceConfig(c.seed, c.scale).Duration/s.cfg.RoundSeconds) + 1
	for round := 0; round < rounds; round++ {
		now := float64(round) * s.cfg.RoundSeconds
		for more && next.SubmitTime <= now {
			lat, ok := serve(h, rec, "http.submit", http.MethodPost, "/v1/jobs", next)
			s.submit = append(s.submit, lat)
			s.count(ok)
			s.ids = append(s.ids, next.ID)
			next, more = src.Next()
		}
		for i := 0; i < d.gets && len(s.ids) > 0; i++ {
			lat, ok := serve(h, rec, "http.get_job", http.MethodGet, "/v1/jobs/"+s.ids[pick.Intn(len(s.ids))], nil)
			s.query = append(s.query, lat)
			s.count(ok)
		}
		rec.begin("server.step.pre_assign")
		t0 := time.Now()
		_, err := srv.Step()
		s.step = append(s.step, ms(time.Since(t0)))
		rec.end("server.step.post_assign")
		s.count(err == nil)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	s.stats = srv.Stats()
	for _, v := range srv.Jobs() {
		if v.State == string(sched.StateQueued) || v.State == string(sched.StateRunning) {
			s.active = append(s.active, v.ID)
		}
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// recovery is one pass: a daemon restarted from a session's journal,
// queried over the HTTP API, and closed.
type recovery struct {
	wall              float64   // seconds, schedtest checks excluded
	replay            float64   // seconds in server.New
	query             []float64 // ms per query
	attempted, failed int
	recovered         bool         // the restarted daemon's stats equal the session's
	pol               *timedPolicy // traced pass only
}

// restart starts a daemon from s's journal, sends it d.queries job
// queries, and closes it. The queries are those of clients polling the
// jobs they still wait on: each picks, with seed, one of the jobs queued
// or running when the session closed.
func (d daemonSim) restart(c config, s *session, seed uint64, rec *recorder) (*recovery, error) {
	polled := s.active
	if len(polled) == 0 {
		polled = s.ids
	}
	r := &recovery{}
	cfg := s.cfg
	cfg.Policy = sched.NewArena()
	if rec != nil {
		r.pol = &timedPolicy{Policy: cfg.Policy, rec: rec, name: "server.replay.assign"}
		cfg.Policy = r.pol
	}
	rec.begin("pass")
	start := time.Now()
	rec.begin("server.replay")
	srv, err := server.New(cfg)
	r.replay = time.Since(start).Seconds()
	rec.end("server.replay")
	r.attempted++
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	pick := rng.Derive(seed, rng.HashString("benchmark-recovered-queries"))
	for i := 0; i < max(1, int(float64(d.queries)*c.scale)) && len(polled) > 0; i++ {
		lat, ok := serve(h, rec, "http.get_job", http.MethodGet, "/v1/jobs/"+polled[pick.Intn(len(polled))], nil)
		r.query = append(r.query, lat)
		r.attempted++
		if !ok {
			r.failed++
		}
	}
	r.recovered = srv.Stats() == s.stats
	if err := srv.Close(); err != nil {
		return nil, err
	}
	r.wall = time.Since(start).Seconds()
	rec.end("pass")
	if r.pol != nil {
		r.wall -= r.pol.checks.Seconds()
	}
	return r, nil
}

// serve sends one request through the handler and returns its latency
// in ms and whether the reply was 2xx. Encoding the request is the
// client's work; only ServeHTTP is timed.
func serve(h http.Handler, rec *recorder, layer, method, path string, body any) (float64, bool) {
	rec.begin("client.http")
	defer rec.end("client.http")
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, false
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	rr := httptest.NewRecorder()
	rec.begin(layer)
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	lat := ms(time.Since(t0))
	rec.end(layer)
	return lat, rr.Code >= 200 && rr.Code < 300
}

// dirBytes totals the sizes of the files under dir.
func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return float64(n), err
}

// journalProbe times appends of round-sized records to a scratch
// journal: the fsynced write every submit and round pays.
func journalProbe(c config, rec *recorder) error {
	dir, err := os.MkdirTemp(c.dir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	j, _, err := st.OpenJournal("probe")
	if err != nil {
		return err
	}
	defer j.Close()
	type round struct {
		Kind   string  `json:"kind"`
		Round  int     `json:"round"`
		Now    float64 `json:"now"`
		Digest string  `json:"digest"`
	}
	rec.begin("probe")
	defer rec.end("probe")
	for i := 0; i < max(1, int(journalProbeAppends*c.scale)); i++ {
		rec.begin("store.journal_append")
		err := j.Append(round{Kind: "round", Round: i, Now: float64(i) * 300, Digest: "0123456789abcdef"})
		rec.end("store.journal_append")
		if err != nil {
			return err
		}
	}
	return j.Close()
}

func (d daemonSim) run(ctx context.Context, c config) (*result, error) {
	res := &result{}
	if c.trace {
		res.rec = newRecorder()
	}
	// Every set-up runs a session; the passes restart from the last one.
	var s *session
	defer func() { s.close() }()
	db, err := schedSetup(ctx, c, res, func(db *perfdb.DB) (err error) {
		s.close()
		if s, err = d.runSession(c, db, nil); err != nil {
			return err
		}
		res.attempted += s.attempted
		res.failed += s.failed
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.check(s.stats.Finished > 0, "the session finished no job: %+v", s.stats)

	var replay []float64
	err = res.runPasses(c.seconds, func(i int) (float64, error) {
		r, err := d.restart(c, s, passSeed(c.seed, i), nil)
		if err != nil {
			return 0, err
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.ops.add(r.query)
		replay = append(replay, r.replay)
		res.check(r.recovered, "pass %d: the restarted daemon's stats differ from the session's", i)
		return r.wall, nil
	})
	if err != nil {
		return nil, err
	}
	res.info = []metric{
		{"jobs", float64(len(s.ids)), "count"},
		{"rounds", float64(len(s.step)), "count"},
		{"recover_s", median(replay), "s"},
		{"submit_ms_p50", metrics.Percentile(s.submit, 0.50), "ms"},
		{"submit_ms_p99", metrics.Percentile(s.submit, 0.99), "ms"},
		{"round_ms_p50", metrics.Percentile(s.step, 0.50), "ms"},
		{"round_ms_p99", metrics.Percentile(s.step, 0.99), "ms"},
	}
	if !c.trace {
		return res, nil
	}

	// A traced session on a store of its own, then a traced restart from
	// it over pass 0's queries.
	ts, err := d.runSession(c, db, res.rec)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	res.attempted += ts.attempted
	res.failed += ts.failed
	res.check(ts.stats == s.stats, "traced session: the stats differ from the untraced one's")
	r, err := d.restart(c, ts, passSeed(c.seed, 0), res.rec)
	if err != nil {
		return nil, err
	}
	res.attempted += r.attempted
	res.failed += r.failed
	res.tracedPass, res.refPass = r.wall, res.passes[0]
	res.check(r.recovered, "traced restart: the stats differ from the session's")
	for _, pol := range []*timedPolicy{ts.pol, r.pol} {
		res.check(pol.checkErr == nil, "schedtest: %v", pol.checkErr)
	}
	ts.pol.report(res)

	// The journal as a restart reads it, timed on the same store.
	res.rec.begin("probe")
	res.rec.begin("store.open_journal")
	j, entries, err := ts.st.OpenJournal("server")
	res.rec.end("store.open_journal")
	res.rec.end("probe")
	if err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	res.check(len(entries) == ts.stats.JournalRecords, "the journal holds %d records, the daemon counted %d", len(entries), ts.stats.JournalRecords)
	size, err := dirBytes(ts.dir)
	if err != nil {
		return nil, err
	}
	res.figure("store.journal.bytes", size)
	return res, journalProbe(c, res.rec)
}
