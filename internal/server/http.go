package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// JobView is the API's job representation: the trace record plus the
// scheduler-facing lifecycle the engine tracks. Its bodies are appended
// by hand (appendJobView), so a field added here needs its line there,
// or TestJobViewBodyMatchesEncoder fails.
type JobView struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Model       string  `json:"model"`
	GlobalBatch int     `json:"global_batch"`
	Iterations  int     `json:"iterations"`
	ReqGPUs     int     `json:"req_gpus"`
	ReqType     string  `json:"req_type,omitempty"`
	Priority    int     `json:"priority"`
	SubmitTime  float64 `json:"submit_time"`
	SubmittedAt float64 `json:"submitted_at"` // effective: submit + profiling prepend
	LaunchedAt  float64 `json:"launched_at"`  // <0 = never launched
	FinishedAt  float64 `json:"finished_at,omitempty"`

	GPUType       string  `json:"gpu_type,omitempty"` // current grant
	GPUs          int     `json:"gpus,omitempty"`
	RemainingFrac float64 `json:"remaining_frac"` // work left, 0..1
	Resched       int     `json:"resched"`
	Preemptions   int     `json:"preemptions,omitempty"`
	Restarts      int     `json:"restarts,omitempty"`
	Migrations    int     `json:"migrations,omitempty"`
	CancelPending bool    `json:"cancel_pending,omitempty"`
}

// jobBody is the body writeJSON's indenting encoder writes for v, with
// its trailing newline, appended by hand. ok is false when a float is
// NaN or infinite: encoding/json refuses those and writes nothing.
func jobBody(v *JobView) (body []byte, ok bool) {
	b, ok := appendJobView(make([]byte, 0, 512), v, "")
	return append(b, '\n'), ok
}

// jobsBody is the body writeJSON's indenting encoder writes for views,
// each element one level deeper than a lone view; ok is false when any
// float is NaN or infinite.
func jobsBody(views []JobView) (body []byte, ok bool) {
	if len(views) == 0 {
		return []byte("[]\n"), true
	}
	b := append(make([]byte, 0, 512*len(views)), '[')
	for i := range views {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  "...)
		if b, ok = appendJobView(b, &views[i], "  "); !ok {
			return nil, false
		}
	}
	return append(b, "\n]\n"...), true
}

// appendJobView appends v as encoding/json indents a JobView whose
// closing brace sits at indent: one `"key": value` line per field in
// declaration order, two spaces deeper, leaving out the zero values the
// omitempty tags name. Strings go through appendJSONString and floats
// through appendJSONFloat, which write what encoding/json writes.
func appendJobView(b []byte, v *JobView, indent string) ([]byte, bool) {
	w := viewWriter{b: append(b, '{'), indent: indent, ok: true}
	w.str("id", v.ID)
	w.str("state", v.State)
	w.str("model", v.Model)
	w.int("global_batch", v.GlobalBatch)
	w.int("iterations", v.Iterations)
	w.int("req_gpus", v.ReqGPUs)
	if v.ReqType != "" {
		w.str("req_type", v.ReqType)
	}
	w.int("priority", v.Priority)
	w.float("submit_time", v.SubmitTime)
	w.float("submitted_at", v.SubmittedAt)
	w.float("launched_at", v.LaunchedAt)
	if v.FinishedAt != 0 {
		w.float("finished_at", v.FinishedAt)
	}
	if v.GPUType != "" {
		w.str("gpu_type", v.GPUType)
	}
	if v.GPUs != 0 {
		w.int("gpus", v.GPUs)
	}
	w.float("remaining_frac", v.RemainingFrac)
	w.int("resched", v.Resched)
	if v.Preemptions != 0 {
		w.int("preemptions", v.Preemptions)
	}
	if v.Restarts != 0 {
		w.int("restarts", v.Restarts)
	}
	if v.Migrations != 0 {
		w.int("migrations", v.Migrations)
	}
	if v.CancelPending {
		w.key("cancel_pending")
		w.b = append(w.b, "true"...)
	}
	w.b = append(w.b, '\n')
	w.b = append(w.b, indent...)
	return append(w.b, '}'), w.ok
}

// viewWriter appends an indented object's fields.
type viewWriter struct {
	b      []byte
	indent string // the object's; its fields sit two spaces deeper
	fields int    // written so far
	ok     bool   // false once a float has no JSON encoding
}

// key starts a field's line: the comma after the field before, if any,
// then `"name": `. Field names need no escaping.
func (w *viewWriter) key(name string) {
	if w.fields > 0 {
		w.b = append(w.b, ',')
	}
	w.fields++
	w.b = append(w.b, '\n')
	w.b = append(w.b, w.indent...)
	w.b = append(w.b, `  "`...)
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *viewWriter) str(k, s string) {
	w.key(k)
	w.b = appendJSONString(w.b, s)
}

func (w *viewWriter) int(k string, n int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(n), 10)
}

func (w *viewWriter) float(k string, f float64) {
	w.key(k)
	var ok bool
	w.b, ok = appendJSONFloat(w.b, f)
	w.ok = w.ok && ok
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest form that round-trips, in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 up with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). NaN and ±Inf have no JSON form: ok is false and b is
// returned as it is.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// viewLocked renders one engine job; callers hold mu.
func (s *Server) viewLocked(j *sched.Job) JobView {
	v := JobView{
		ID:          j.Trace.ID,
		State:       string(j.State),
		Model:       j.Trace.Workload.Model,
		GlobalBatch: j.Trace.Workload.GlobalBatch,
		Iterations:  j.Trace.Iterations,
		ReqGPUs:     j.Trace.ReqGPUs,
		ReqType:     j.Trace.ReqType,
		Priority:    j.Trace.Priority,
		SubmitTime:  j.Trace.SubmitTime,
		SubmittedAt: j.SubmittedAt,
		LaunchedAt:  j.LaunchedAt,
		FinishedAt:  j.FinishedAt,
		GPUType:     j.Alloc.GPUType,
		GPUs:        j.Alloc.N,
		Resched:     j.Resched,
		Preemptions: j.Preemptions,
		Restarts:    j.Restarts,
		Migrations:  j.Migrations,
	}
	if total := j.Trace.TotalSamples(); total > 0 {
		v.RemainingFrac = j.RemainingSamples / total
	}
	v.CancelPending = s.inboxSet[j.Trace.ID]
	return v
}

// Job returns one job's view, or ErrUnknownJob.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.eng.Find(id)
	if j == nil {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.viewLocked(j), nil
}

// Jobs lists every job the server has ever seen, completed first.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.eng.Jobs()
	views := make([]JobView, 0, len(all))
	for _, j := range all {
		views = append(views, s.viewLocked(j))
	}
	return views
}

// StatsView is the monitoring snapshot the stats endpoint serves:
// sim-grade counters plus the daemon's own cursor.
type StatsView struct {
	Policy       string  `json:"policy"`
	Now          float64 `json:"now"` // clock instant, seconds on the run timeline
	RoundSeconds float64 `json:"round_seconds"`
	Rounds       int     `json:"rounds"` // rounds committed so far
	NextRound    int     `json:"next_round"`

	Pending        int `json:"pending"` // submitted for a future instant
	Queued         int `json:"queued"`  // awaiting resources
	Running        int `json:"running"`
	Finished       int `json:"finished"`
	Dropped        int `json:"dropped"`
	Failed         int `json:"failed"`
	CancelsPending int `json:"cancels_pending"`

	Preemptions int `json:"preemptions"`
	Restarts    int `json:"restarts"`
	Migrations  int `json:"migrations"`

	GoodputGPUHours float64 `json:"goodput_gpu_hours"`
	WastedGPUHours  float64 `json:"wasted_gpu_hours"`
	Utilization     float64 `json:"utilization"`

	JournalRecords int `json:"journal_records"`
}

// Stats assembles the monitoring snapshot.
func (s *Server) Stats() StatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	es := s.eng.Stats()
	return StatsView{
		Policy:       s.cfg.Policy.Name(),
		Now:          s.nowLocked(),
		RoundSeconds: s.cfg.RoundSeconds,
		Rounds:       s.nextRound,
		NextRound:    s.nextRound,

		Pending:        es.Pending,
		Queued:         es.Queued,
		Running:        es.Running,
		Finished:       es.Finished,
		Dropped:        es.Dropped,
		Failed:         es.Failed,
		CancelsPending: len(s.inbox),

		Preemptions: es.Preemptions,
		Restarts:    es.Restarts,
		Migrations:  es.Migrations,

		GoodputGPUHours: es.GoodputGPUSeconds / 3600,
		WastedGPUHours:  es.WastedGPUSeconds / 3600,
		Utilization:     es.Utilization,

		JournalRecords: s.journal.Len(),
	}
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs      submit a job (JSON trace record; ID/SubmitTime optional)
//	GET    /v1/jobs      list all jobs
//	GET    /v1/jobs/{id} one job
//	DELETE /v1/jobs/{id} cancel (applies at the next round)
//	GET    /v1/stats     monitoring snapshot (JSON)
//	GET    /metrics      the same counters, Prometheus text format
//	GET    /healthz      liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, ok := jobsBody(s.Jobs())
		writeBody(w, http.StatusOK, body, ok)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		body, ok := jobBody(&v)
		writeBody(w, http.StatusOK, body, ok)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		// Accepted, not OK: the cancel is journaled but applies at the
		// next round boundary.
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleSubmit decodes, registers and echoes one job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var tj trace.Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tj); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadJob, err))
		return
	}
	// The body is one job: anything after it but white space — a second
	// object, a stray token — rejects the whole request.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, fmt.Errorf("%w: data after the job object", ErrBadJob))
		return
	}
	tj, err := s.Submit(tj)
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := s.Job(tj.ID)
	if err != nil {
		writeError(w, err)
		return
	}
	body, ok := jobBody(&v)
	writeBody(w, http.StatusCreated, body, ok)
}

// handleMetrics serves the stats snapshot in Prometheus exposition
// format, each sample after the TYPE line that declares it: a counter
// for every _total name, a gauge otherwise.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, m := range []struct {
		name string
		val  float64
	}{
		{"arena_clock_seconds", st.Now},
		{"arena_rounds_total", float64(st.Rounds)},
		{"arena_jobs_pending", float64(st.Pending)},
		{"arena_jobs_queued", float64(st.Queued)},
		{"arena_jobs_running", float64(st.Running)},
		{"arena_jobs_finished_total", float64(st.Finished)},
		{"arena_jobs_dropped_total", float64(st.Dropped)},
		{"arena_jobs_failed_total", float64(st.Failed)},
		{"arena_cancels_pending", float64(st.CancelsPending)},
		{"arena_preemptions_total", float64(st.Preemptions)},
		{"arena_restarts_total", float64(st.Restarts)},
		{"arena_migrations_total", float64(st.Migrations)},
		{"arena_goodput_gpu_hours", st.GoodputGPUHours},
		{"arena_wasted_gpu_hours", st.WastedGPUHours},
		{"arena_utilization", st.Utilization},
		{"arena_journal_records_total", float64(st.JournalRecords)},
	} {
		kind := "gauge"
		if strings.HasSuffix(m.name, "_total") {
			kind = "counter"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", m.name, kind, m.name, m.val)
	}
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeError maps typed server errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrJobDone):
		status = http.StatusConflict
	case errors.Is(err, ErrBadJob):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// writeJSON writes one JSON response. A value encoding/json refuses
// leaves the status written and the body empty.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeBody writes a JobView body from jobBody or jobsBody as writeJSON
// would write the views: the same header and status, and no body when
// ok is false.
func writeBody(w http.ResponseWriter, status int, body []byte, ok bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if ok {
		_, _ = w.Write(body)
	}
}
