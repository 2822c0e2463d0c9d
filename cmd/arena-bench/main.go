// Command arena-bench regenerates the paper's evaluation tables and
// figures (§5). With no arguments it runs the full suite in paper order;
// -fig selects a comma-separated subset.
//
// Usage:
//
//	arena-bench                 # run everything
//	arena-bench -list           # list experiment IDs
//	arena-bench -fig fig11,fig12
//	arena-bench -seed 7         # change the determinism seed
//	arena-bench -fig fig11 -store ./measurements
//	arena-bench -fig fig12 -v   # stream per-figure build/sim progress
//	arena-bench -fig fig11 -cpuprofile cpu.prof -memprofile mem.prof
//
// With -store, every performance database the experiments build persists
// as content-addressed per-workload columns, so later runs — including
// runs selecting different figures — reuse them and rebuild only what is
// missing. A ^C cancels mid-figure: in-flight database builds, searches
// and simulations stop within one worker-pool quantum.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sjtu-epcc/arena/internal/cli"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/experiments"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list available experiments and exit")
		verbose = flag.Bool("v", false, "stream per-figure build/simulation progress to stderr")
	)
	c := cli.CommonFlags()
	prof := cli.ProfileFlags()
	flag.Parse()
	prof.Start()
	defer prof.Stop()

	env := experiments.NewEnv(c.Seed)
	env.StoreDir = c.Store
	env.Workers = c.Workers
	env.Warn = cli.WarnPersist
	if *verbose {
		env.Progress = func(ev core.Event) {
			if ev.Total > 0 {
				fmt.Fprintf(os.Stderr, "  [%s] %s (%d/%d)\n", ev.Step, ev.Item, ev.Done, ev.Total)
				return
			}
			fmt.Fprintf(os.Stderr, "  [%s] %s (%d)\n", ev.Step, ev.Item, ev.Done)
		}
	}
	ctx := cli.Context()
	if *list {
		for _, ex := range env.Registry() {
			fmt.Printf("%-10s %s\n", ex.ID, ex.Brief)
		}
		return
	}

	var selected []experiments.Experiment
	if *figs == "all" || *figs == "" {
		selected = env.Registry()
	} else {
		for _, id := range strings.Split(*figs, ",") {
			ex, err := env.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, ex)
		}
	}

	for _, ex := range selected {
		start := time.Now()
		table, err := ex.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.ID, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s completed in %v)\n\n", ex.ID, time.Since(start).Round(time.Millisecond))
	}
}
