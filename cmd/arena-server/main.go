// Command arena-server runs the scheduler as a long-running service: the
// same policies and round loop the simulator drives, on a wall clock,
// behind an HTTP job API, journaling every state transition so a killed
// server restarts from its -store and resumes bit-identical scheduling.
//
// Usage:
//
//	arena-server -store ./state -policy arena -cluster a
//	arena-server -store ./state -addr :8080 -round-seconds 60
//
// Submit, inspect and cancel jobs over HTTP:
//
//	curl -X POST localhost:8080/v1/jobs -d \
//	  '{"Workload":{"Model":"GPT-1.3B","GlobalBatch":128},"Iterations":5000,"ReqGPUs":4,"ReqType":"A40"}'
//	curl localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/job-000000
//	curl -X DELETE localhost:8080/v1/jobs/job-000000
//	curl localhost:8080/v1/stats
//
// SIGTERM (or ^C) shuts down gracefully: the in-flight round drains and
// is journaled, the HTTP listener stops, and the measurement store is
// flushed. Restarting with the same -store replays the journal — every
// submit, cancel and round re-executed and digest-verified — and resumes
// the run timeline where it stopped. A corrupt or tampered journal, or
// one written under a different policy/seed/cluster, refuses to start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/cli"
	"github.com/sjtu-epcc/arena/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "HTTP listen address")
		policyName  = flag.String("policy", "arena", "fcfs|gavel|elasticflow|sia|arena")
		clusterName = flag.String("cluster", "a", "a|b|sim|b-homogeneous")
		roundSecs   = flag.Float64("round-seconds", 300, "scheduling interval (paper: 300)")
		models      = flag.String("models", "", "comma-separated model names restricting the workload mix (default: all)")
	)
	c := cli.CommonFlags()
	flag.Parse()
	if c.Store == "" {
		cli.Fatal(fmt.Errorf("arena-server requires -store: the journal that makes the daemon crash-recoverable lives there"))
	}
	ctx := cli.Context()

	pol, err := cli.PickPolicy(*policyName)
	if err != nil {
		cli.Fatal(err)
	}
	spec, err := cli.PickCluster(*clusterName)
	if err != nil {
		cli.Fatal(err)
	}
	workloads, err := pickWorkloads(*models)
	if err != nil {
		cli.Fatal(err)
	}

	sess := cli.NewSession(c,
		arena.WithSeed(c.Seed),
		arena.WithWorkers(c.Workers),
		arena.WithCluster(spec),
		arena.WithMaxN(16),
		arena.WithWorkloads(workloads...),
	)
	defer cli.CloseSession(sess)

	fmt.Printf("building performance database for %v...\n", spec.GPUTypes())
	start := time.Now()
	db, src := cli.BuildDB(ctx, sess)
	fmt.Printf("  %d entries (%s) in %v\n", len(db.Keys()), src, time.Since(start).Round(time.Millisecond))

	srv, err := server.New(server.Config{
		Spec: spec, Policy: pol, DB: db,
		RoundSeconds: *roundSecs, Seed: c.Seed,
		Store: sess.Store(),
	})
	if err != nil {
		cli.Fatal(err)
	}
	defer srv.Close()
	if r := srv.NextRound(); r > 0 {
		fmt.Printf("recovered from journal: %d rounds replayed, resuming at round %d (t=%.0fs)\n", r, r, srv.Now())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("arena-server: policy=%s cluster=%s round=%gs listening on %s\n",
		pol.Name(), spec.Name, *roundSecs, *addr)

	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	select {
	case err := <-runErr:
		// Graceful shutdown (signal) or a journal failure: either way the
		// in-flight round has drained. Stop accepting HTTP and exit.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if herr := httpSrv.Shutdown(shCtx); herr != nil {
			fmt.Fprintf(os.Stderr, "arena-server: http shutdown: %v\n", herr)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			cli.Fatal(err)
		}
	case err := <-httpErr:
		if !errors.Is(err, http.ErrServerClosed) {
			cli.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		cli.Fatal(err)
	}
	fmt.Println("arena-server: clean shutdown, journal flushed")
}

// pickWorkloads restricts the default workload mix to the named models;
// an empty spec keeps the whole mix.
func pickWorkloads(models string) ([]arena.Workload, error) {
	all := arena.DefaultWorkloads()
	if models == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, m := range strings.Split(models, ",") {
		want[strings.TrimSpace(m)] = true
	}
	var out []arena.Workload
	for _, w := range all {
		if want[w.Model] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no known models in -models %q", models)
	}
	return out, nil
}
