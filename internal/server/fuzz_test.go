package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sjtu-epcc/arena/internal/sched/policy"
)

// FuzzSubmitJSON posts arbitrary bodies to POST /v1/jobs through the
// server's handler, twice each on a fresh server (virtual clock,
// temporary store), so an accepted job with an ID meets itself. No input
// may panic. Every answer is 201, 400 or 409; a 201 echoes a job the
// server then finds, and any other answer is an apiError.
func FuzzSubmitJSON(f *testing.F) {
	for _, seed := range []string{
		`{"ID":"a","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000}`,
		`{"Workload":{"Model":"GPT-1.3B","GlobalBatch":128},"Iterations":100,"ReqGPUs":16,"ReqType":"A40","Priority":2,"Deadline":3600}`,
		`{"ID":"b","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000,"ReqGPUs":3}`,
		`{"ID":"c","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000,"ReqGPUs":1000}`,
		`{"ID":"d","Workload":{"Model":"NoSuchModel","GlobalBatch":1},"Iterations":1}`,
		`{"ID":"e","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":0}`,
		`{"ID":"f","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"SubmitTime":-1}`,
		`{"ID":"g","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"Priority":-5,"ReqGPUs":-2}`,
		`{"ID":"h","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":2000} trailing`,
		`{"Unknown":1}`,
		`{"ID":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, st := newServer(t, t.TempDir(), policy.NewFCFS())
		defer st.Close()
		defer srv.Close()
		h := srv.Handler()
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusCreated:
				var v JobView
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("POST %q: 201 with body %q: %v", body, rec.Body, err)
				}
				if _, err := srv.Job(v.ID); err != nil {
					t.Fatalf("POST %q: 201 for job %q, which the server cannot find: %v", body, v.ID, err)
				}
			case http.StatusBadRequest, http.StatusConflict:
				var e apiError
				dec := json.NewDecoder(rec.Body)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&e); err != nil || e.Error == "" {
					t.Fatalf("POST %q: %d with body %q, not an apiError (%v)", body, rec.Code, rec.Body, err)
				}
			default:
				t.Fatalf("POST %q: status %d, body %q", body, rec.Code, rec.Body)
			}
		}
	})
}
