package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// JobView is the API's job representation: the trace record plus the
// scheduler-facing lifecycle the engine tracks.
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
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
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
	writeJSON(w, http.StatusCreated, v)
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

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
