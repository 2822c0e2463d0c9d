// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each Fig* function returns a printable Table whose rows
// mirror the series the paper plots; cmd/arena-bench prints them and
// bench_test.go wraps them as benchmarks. Shared state (execution engine,
// communication table, performance databases) is cached per Env so a full
// suite run builds each database once.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // experiment identifier, e.g. "fig11"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-form annotation.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts = append(parts, fmt.Sprintf("%-*s", widths[i], c))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// Env caches the expensive shared state across experiments.
type Env struct {
	Seed uint64

	// StoreDir, when non-empty, persists the performance databases the
	// experiments build through the content-addressed measurement store:
	// one object per workload column, shared across experiments and runs,
	// with partial rebuilds when only some columns are missing.
	StoreDir string

	// Workers caps database-build worker pools; 0 = all cores.
	Workers int

	// Progress, when non-nil, receives build and simulation progress
	// events from the figures' Run(ctx) — one "perfdb.build" event per
	// completed (workload, type, count) point and one "sim.round" event
	// per scheduling round — the same stream arena.Session forwards.
	// Builds fan out over worker pools, so Env serializes the callback;
	// set it before the first Run call. cmd/arena-bench wires it to -v.
	Progress core.ProgressFunc

	// Warn, when non-nil, receives store persistence failures (the build
	// itself succeeded); the default prints to stderr. cmd/arena-bench
	// routes it through internal/cli for the uniform tool-prefixed
	// message.
	Warn func(error)

	mu         sync.Mutex
	progressMu sync.Mutex // serializes Progress calls from worker pools
	eng        *exec.Engine
	comm       map[string]*profiler.CommTable
	dbs        map[string]*perfdb.DB
	store      *store.Store // lazily opened StoreDir; nil until first DB call
}

// NewEnv returns an experiment environment with the given determinism seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		Seed: seed,
		eng:  exec.NewEngine(seed),
		comm: map[string]*profiler.CommTable{},
		dbs:  map[string]*perfdb.DB{},
	}
}

// CommTable returns (building on first use) the offline communication
// table covering the given GPU types.
func (e *Env) CommTable(types []string) (*profiler.CommTable, error) {
	key := strings.Join(types, ",")
	e.mu.Lock()
	defer e.mu.Unlock()
	if ct, ok := e.comm[key]; ok {
		return ct, nil
	}
	ct, err := profiler.OfflineSampleComm(e.eng, types, 16)
	if err != nil {
		return nil, err
	}
	e.comm[key] = ct
	return ct, nil
}

// DB returns (building on first use) the performance database for a set
// of GPU types over the default trace workload mix. The build is
// cancelled through ctx; with StoreDir set it persists per-workload
// columns and rebuilds only the missing ones.
func (e *Env) DB(ctx context.Context, types []string) (*perfdb.DB, error) {
	key := strings.Join(types, ",")
	e.mu.Lock()
	if db, ok := e.dbs[key]; ok {
		e.mu.Unlock()
		return db, nil
	}
	e.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	opts := perfdb.Options{
		GPUTypes:  types,
		MaxN:      16,
		Workloads: trace.DefaultWorkloads(),
		Workers:   e.Workers,
		Progress:  e.progress(),
	}
	db, stats, err := perfdb.BuildOrLoadStore(ctx, e.eng, opts, e.openStore())
	for _, serr := range stats.Skipped {
		e.warn(fmt.Errorf("%v (column rebuilt)", serr))
	}
	if err != nil {
		// A failed column write still returns a usable database;
		// experiments only lose the cross-run cache, not correctness.
		if db == nil {
			return nil, err
		}
		e.warn(err)
	}
	e.mu.Lock()
	e.dbs[key] = db
	e.mu.Unlock()
	return db, nil
}

// progress returns the Env's serialized progress sink, or nil when no
// stream is configured so callees skip event construction — the same
// convention as arena.Session.
func (e *Env) progress() core.ProgressFunc {
	if e.Progress == nil {
		return nil
	}
	return func(ev core.Event) {
		e.progressMu.Lock()
		e.Progress(ev)
		e.progressMu.Unlock()
	}
}

// warn routes a persistence warning through Warn or stderr.
func (e *Env) warn(err error) {
	if e.Warn != nil {
		e.Warn(err)
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: warning: %v (continuing with the built database)\n", err)
}

// openStore lazily opens StoreDir, warning once and building without
// persistence when the directory is unusable (the store is only a cache).
func (e *Env) openStore() *store.Store {
	e.mu.Lock()
	dir, st := e.StoreDir, e.store
	e.mu.Unlock()
	if dir == "" || st != nil {
		return st
	}
	opened, err := store.Open(dir)
	if err != nil {
		e.warn(err)
		e.mu.Lock()
		e.StoreDir = ""
		e.mu.Unlock()
		return nil
	}
	e.mu.Lock()
	if e.store == nil {
		e.store = opened
	}
	st = e.store
	e.mu.Unlock()
	return st
}

// Policies returns the five schedulers of §5.1 in the paper's order.
func Policies() []sched.Policy {
	return []sched.Policy{
		policy.NewFCFS(),
		policy.NewGavel(),
		policy.NewElasticFlow(),
		policy.NewSia(),
		sched.NewArena(),
	}
}

// runPolicies executes one trace under every policy and returns the
// results keyed by policy name, plus the name order. Cancelling ctx
// aborts between and within policy runs.
func (e *Env) runPolicies(ctx context.Context, spec hw.ClusterSpec, jobs []trace.Job, db *perfdb.DB, maxRounds int, pols []sched.Policy) (map[string]*sim.Result, []string, error) {
	results := map[string]*sim.Result{}
	var order []string
	for _, p := range pols {
		res, err := sim.RunCtx(ctx, sim.Config{
			Spec: spec, Policy: p, Source: trace.SliceSource(jobs), DB: db,
			RoundSeconds: 300, MaxRounds: maxRounds,
			IncludeUnfinished: true, Seed: e.Seed,
			Progress: e.progress(),
		})
		if err != nil {
			return nil, nil, err
		}
		results[p.Name()] = res
		order = append(order, p.Name())
	}
	return results, order, nil
}

// pct formats a relative change vs a baseline value as the paper does
// ("-49.3%").
func pct(value, baseline float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(value-baseline)/baseline)
}

// ratio formats a multiplicative improvement ("1.49x").
func ratio(value, baseline float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", value/baseline)
}

// seconds formats a duration in seconds compactly.
func seconds(s float64) string { return fmt.Sprintf("%.0fs", s) }

// meanWindow averages a series over exactly `window` rounds: longer
// series are truncated, shorter ones padded with zeros (the cluster sits
// idle once all jobs finish), so policies with different horizons compare
// on the same denominator.
func meanWindow(series []float64, window int) float64 {
	if window <= 0 {
		window = len(series)
	}
	if len(series) > window {
		series = series[:window]
	}
	var sum float64
	for _, v := range series {
		sum += v
	}
	if window == 0 {
		return 0
	}
	return sum / float64(window)
}

// maxHorizon returns the longest throughput-series length across results
// — the common comparison window ("until every policy drained").
func maxHorizon(results map[string]*sim.Result) int {
	m := 0
	for _, r := range results {
		if len(r.ThroughputSeries) > m {
			m = len(r.ThroughputSeries)
		}
	}
	return m
}

// maxWindow is the peak of a truncated series.
func maxWindow(series []float64, window int) float64 {
	if len(series) > window {
		series = series[:window]
	}
	var m float64
	for _, v := range series {
		if v > m {
			m = v
		}
	}
	return m
}

// sortedWorkloadsOf lists the distinct workloads in a trace (diagnostics).
func sortedWorkloadsOf(jobs []trace.Job) []model.Workload {
	seen := map[model.Workload]bool{}
	for _, j := range jobs {
		seen[j.Workload] = true
	}
	out := make([]model.Workload, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
