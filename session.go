package arena

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// ProgressEvent is one progress report from a long-running Session
// method; see WithProgress.
type ProgressEvent = core.Event

// ProgressFunc receives progress events; see WithProgress.
type ProgressFunc = core.ProgressFunc

// Session is the context-aware facade over the whole Arena pipeline:
// planner → profiler → pruned AP search → performance database →
// scheduler → simulator (§3–§4). It owns the execution engine, planner,
// profiler, offline communication table, stage-measurement cache and
// performance database, constructing each lazily and sharing them across
// calls, so one Session amortizes every expensive artifact exactly the
// way the paper's runtime does.
//
// Every long-running method takes a context.Context and stops within one
// scheduling quantum of its worker pool when the context is cancelled,
// returning ctx.Err() and leaking no goroutines. Uncancelled, results are
// bit-identical to running the same pipeline stages directly on a fresh
// engine (the engine is a pure function of its seed).
//
// A Session is safe for concurrent use: the engine, planner, profiler and
// eval cache are concurrency-safe, lazy construction is serialized, and
// the progress callback is serialized too.
type Session struct {
	cfg     sessionConfig
	eng     *exec.Engine
	planner *planner.Planner
	cache   *EvalCache

	// store holds the performance database's columns and the daemon's
	// journal (nil without WithStore).
	store *store.Store

	progressMu sync.Mutex // serializes cfg.progress calls

	mu    sync.Mutex // guards the lazy fields below
	comm  *profiler.CommTable
	prof  *profiler.Profiler
	graph map[string]*model.Graph

	// The database has its own lock so a long build never blocks the
	// session's other lazy state; dbBuilding marks an in-flight build
	// (closed on completion) for single-flight semantics whose waiters
	// still honor their own contexts.
	dbMu         sync.Mutex
	db           *perfdb.DB
	dbStoreStats PerfDBStoreStats
	dbBuilding   chan struct{}
}

// PerfDBStoreStats reports how BuildPerfDB was served from the store:
// workload columns loaded vs built, plus typed errors for skipped objects.
type PerfDBStoreStats = perfdb.StoreStats

// New constructs a Session from functional options:
//
//	s, err := arena.New(
//		arena.WithSeed(42),
//		arena.WithGPUTypes("A40", "A10"),
//		arena.WithStore("./measurements"),
//		arena.WithProgress(func(e arena.ProgressEvent) { ... }),
//	)
//
// Defaults: seed 42, all catalog GPU types, allocations up to 16 GPUs,
// the trace generator's workload mix, all cores, a fresh eval cache, no
// store, no progress stream.
func New(opts ...Option) (*Session, error) {
	cfg := defaultSessionConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.gpuTypes) == 0 {
		for name := range hw.Catalog() {
			cfg.gpuTypes = append(cfg.gpuTypes, name)
		}
		sort.Strings(cfg.gpuTypes)
	}
	if len(cfg.workloads) == 0 {
		cfg.workloads = trace.DefaultWorkloads()
	}
	eng := exec.NewEngine(cfg.seed)
	s := &Session{cfg: cfg, eng: eng, planner: planner.New(), cache: NewEvalCache(eng)}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return s, nil
}

// Close releases the store's single-writer lock so another process can
// open the directory; without WithStore it is a no-op. Every column
// BuildPerfDB built is already on disk, so Close writes nothing. Closing
// does not invalidate the session — it may keep measuring — but the store
// is gone, so defer Close next to New and treat it as the end of the
// session's lifecycle. The returned error, when non-nil, comes from
// releasing the lock; all results remain valid, so callers typically warn
// and continue.
func (s *Session) Close() error {
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}

// Store exposes the session's open measurement store, or nil without
// WithStore. Long-running callers (arena-server) journal scheduler state
// through it; batch tools never need it.
func (s *Session) Store() *store.Store {
	return s.store
}

// PerfDBStoreStats reports how the last BuildPerfDB call was served from
// the store (zero before the first call; without WithStore every column
// counts as built).
func (s *Session) PerfDBStoreStats() PerfDBStoreStats {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	return s.dbStoreStats
}

// MustNew is New or panic — for examples and tests where the options are
// known good.
func MustNew(opts ...Option) *Session {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Seed returns the session's determinism seed.
func (s *Session) Seed() uint64 { return s.cfg.seed }

// GPUTypes returns the catalog GPU types the session covers.
func (s *Session) GPUTypes() []string { return append([]string(nil), s.cfg.gpuTypes...) }

// MaxN returns the session's per-job GPU allocation cap.
func (s *Session) MaxN() int { return s.cfg.maxN }

// Engine returns the session's deterministic execution engine for direct
// low-level measurements.
func (s *Session) Engine() *Engine { return s.eng }

// Planner returns the session's execution-free parallelism planner.
func (s *Session) Planner() *Planner { return s.planner }

// EvalCache returns the session's stage-measurement cache: the memo of
// FullSearch, PrunedSearch, Search and Evaluate. BuildPerfDB measures
// through caches of its own, one per model, that die with the build.
func (s *Session) EvalCache() *EvalCache { return s.cache }

// emit forwards a progress event, serializing the user's callback.
func (s *Session) emit(e core.Event) {
	if s.cfg.progress == nil {
		return
	}
	s.progressMu.Lock()
	s.cfg.progress(e)
	s.progressMu.Unlock()
}

// progress returns the session's serialized progress sink (nil when no
// progress stream is configured, so callees skip event construction).
func (s *Session) progress() core.ProgressFunc {
	if s.cfg.progress == nil {
		return nil
	}
	return s.emit
}

// buildGraph returns the memoized clustered operator graph for a model:
// the model registry guarantees a name determines the graph, and the
// evalcache keys measurements by graph name, so one instance per session
// is both safe and what lets repeated Plan/Search calls skip the rebuild.
func (s *Session) buildGraph(name string) (*Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.graph[name]; ok {
		return g, nil
	}
	g, err := model.BuildClustered(name)
	if err != nil {
		return nil, err
	}
	if s.graph == nil {
		s.graph = map[string]*model.Graph{}
	}
	s.graph[name] = g
	return g, nil
}

// checkScope rejects profiling requests outside what the session sampled:
// the communication table only covers the configured GPU types with
// communicator groups up to max(16, MaxN) workers, and failing here beats
// a cryptic interpolation error deep inside the profiler.
func (s *Session) checkScope(gpuType string, n int) error {
	found := false
	for _, t := range s.cfg.gpuTypes {
		if t == gpuType {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("arena: GPU type %q is outside the session's scope %v (configure it with WithGPUTypes or WithCluster)",
			gpuType, s.cfg.gpuTypes)
	}
	if bound := max(16, s.cfg.maxN); n > bound {
		return fmt.Errorf("arena: n=%d exceeds the session's sampled communicator bound %d (raise WithMaxN)", n, bound)
	}
	return nil
}

// searchOptions resolves the session's search execution options.
func (s *Session) searchOptions() search.Options {
	workers := s.cfg.workers
	if workers <= 0 {
		workers = -1 // search convention: < 0 means all cores
	}
	return search.Options{Cache: s.cache, Workers: workers, Progress: s.progress()}
}

// CommTable returns the session's offline-sampled communication table,
// building it on first use over the session's GPU types with communicator
// groups up to max(16, MaxN) workers.
func (s *Session) CommTable(ctx context.Context) (*CommTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.comm != nil {
		return s.comm, nil
	}
	ct, err := profiler.OfflineSampleComm(s.eng, s.cfg.gpuTypes, max(16, s.cfg.maxN))
	if err != nil {
		return nil, err
	}
	s.comm = ct
	return ct, nil
}

// Profiler returns the session's single-device disaggregated profiler,
// building it (and the communication table it samples from) on first use.
// Its operator-latency cache persists for the session's lifetime, so
// profiling many jobs skips repeated operator configurations.
func (s *Session) Profiler(ctx context.Context) (*Profiler, error) {
	ct, err := s.CommTable(ctx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prof == nil {
		s.prof = profiler.New(s.eng, ct)
	}
	return s.prof, nil
}

// Plan runs the execution-free parallelism planner on one grid (§3.3).
func (s *Session) Plan(ctx context.Context, grid Grid) (*GridPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := s.buildGraph(grid.Workload.Model)
	if err != nil {
		return nil, err
	}
	return s.planner.PlanGrid(g, grid)
}

// ProfileJob plans and profiles every grid of a workload across the
// session's GPU types up to MaxN GPUs per type (§3.4) — the scheduler's
// complete view of the job's adaptive-parallelism performance.
func (s *Session) ProfileJob(ctx context.Context, w Workload) (*JobProfile, error) {
	g, err := s.buildGraph(w.Model)
	if err != nil {
		return nil, err
	}
	pr, err := s.Profiler(ctx)
	if err != nil {
		return nil, err
	}
	return profiler.ProfileJobCtx(ctx, s.planner, pr, g, w, s.cfg.gpuTypes, s.cfg.maxN, s.progress())
}

// FullSearch runs the full-space (Alpa-style) AP search for n GPUs of a
// type (§3.6 baseline), through the session's eval cache and worker pool.
func (s *Session) FullSearch(ctx context.Context, g *Graph, gpuType string, globalBatch, n int) (SearchOutcome, error) {
	spec, err := hw.Lookup(gpuType)
	if err != nil {
		return SearchOutcome{}, err
	}
	return search.FullSearchCtx(ctx, s.eng, g, spec, globalBatch, n, s.searchOptions())
}

// PrunedSearch runs Arena's space-pruned AP search for a selected grid
// (§3.6), through the session's eval cache and worker pool. Sharing the
// session across the full and pruned searches of one deployment point
// reuses every overlapping stage measurement.
func (s *Session) PrunedSearch(ctx context.Context, g *Graph, gpuType string, globalBatch, n int, gp *GridPlan) (SearchOutcome, error) {
	spec, err := hw.Lookup(gpuType)
	if err != nil {
		return SearchOutcome{}, err
	}
	return search.PrunedSearchCtx(ctx, s.eng, g, spec, globalBatch, n, gp, s.searchOptions())
}

// Search runs Arena's whole deployment pipeline for one workload on one
// resource: plan every grid of the (type, n) column, profile the proxies
// on a single device, pick the best grid, and space-prune-search it. This
// is what happens when the scheduler (re)deploys a job (§3.5–§3.6).
func (s *Session) Search(ctx context.Context, w Workload, gpuType string, n int) (SearchOutcome, error) {
	if err := s.checkScope(gpuType, n); err != nil {
		return SearchOutcome{}, err
	}
	g, err := s.buildGraph(w.Model)
	if err != nil {
		return SearchOutcome{}, err
	}
	pr, err := s.Profiler(ctx)
	if err != nil {
		return SearchOutcome{}, err
	}
	jp, err := profiler.ProfileJobCtx(ctx, s.planner, pr, g, w, []string{gpuType}, n, s.progress())
	if err != nil {
		return SearchOutcome{}, err
	}
	grid, ok := jp.BestGrid(Resource{GPUType: gpuType, N: n})
	if !ok {
		return SearchOutcome{}, fmt.Errorf("arena: no feasible grid for %s on %dx%s", w, n, gpuType)
	}
	return s.PrunedSearch(ctx, g, gpuType, w.GlobalBatch, n, jp.GridPlans[grid])
}

// Evaluate measures a plan end to end on the simulated testbed, through
// the session's eval cache (bit-identical to a direct engine measurement,
// but memoized across the session).
func (s *Session) Evaluate(ctx context.Context, g *Graph, p *Plan, gpuType string, globalBatch int) (ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	spec, err := hw.Lookup(gpuType)
	if err != nil {
		return ExecResult{}, err
	}
	return s.cache.Evaluate(g, p, spec, globalBatch, 0)
}

// BuildPerfDB returns the session's performance database, building it on
// first use over (GPU types × counts up to MaxN × workloads) — by far the
// most expensive step of a simulator run. With WithStore each workload
// column is served from the content-addressed store when present and only
// missing columns are built (and written back). A build measures through
// per-model caches that die with it, not the session's EvalCache.
//
// A column persistence failure returns the fully usable database together
// with a *perfdb.PersistError-wrapped error; callers decide whether to
// warn or abort. PerfDBStoreStats breaks the build down by column.
func (s *Session) BuildPerfDB(ctx context.Context) (*PerfDB, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.dbMu.Lock()
		if s.db != nil {
			db := s.db
			s.dbMu.Unlock()
			return db, nil
		}
		if building := s.dbBuilding; building != nil {
			// Another goroutine is building: wait for it without holding
			// the lock, but never past this call's own context.
			s.dbMu.Unlock()
			select {
			case <-building:
				continue // re-check: memoized on success, retry on failure
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		building := make(chan struct{})
		s.dbBuilding = building
		s.dbMu.Unlock()

		opts := perfdb.Options{
			GPUTypes:  s.cfg.gpuTypes,
			MaxN:      s.cfg.maxN,
			Workloads: s.cfg.workloads,
			Workers:   s.cfg.workers,
			Progress:  s.progress(),
		}
		db, stats, err := perfdb.BuildOrLoadStore(ctx, s.eng, opts, s.store)
		s.dbMu.Lock()
		s.dbBuilding = nil
		if db != nil {
			s.db, s.dbStoreStats = db, stats
		}
		s.dbMu.Unlock()
		close(building)
		return db, err
	}
}

// Simulate runs the discrete-event cluster simulation. Config fields the
// caller leaves zero are filled from the session: a nil DB uses
// BuildPerfDB (tolerating store persistence failures), an empty Spec
// uses the WithCluster spec, a nil Faults uses the WithFaults config, and
// a nil Progress uses the session stream.
func (s *Session) Simulate(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	if cfg.DB == nil {
		db, err := s.BuildPerfDB(ctx)
		if db == nil {
			return nil, err
		}
		cfg.DB = db
	}
	if len(cfg.Spec.Regions) == 0 && s.cfg.cluster != nil {
		cfg.Spec = *s.cfg.cluster
	}
	if cfg.Faults == nil && s.cfg.faults != nil {
		cfg.Faults = s.cfg.faults
	}
	if cfg.Progress == nil {
		cfg.Progress = s.progress()
	}
	return sim.RunCtx(ctx, cfg)
}

// PlanHetero partitions a model across a mixed GPU pool (§6's intra-job
// heterogeneity) with the session's planner.
func (s *Session) PlanHetero(ctx context.Context, g *Graph, pool HeteroPool, stages, globalBatch int) (*HeteroPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.planner.PlanHetero(g, pool, stages, globalBatch)
}

// EvaluateHetero measures a heterogeneous pipeline on the simulated
// testbed.
func (s *Session) EvaluateHetero(ctx context.Context, g *Graph, p *HeteroPlan, globalBatch int) (ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	return s.eng.EvaluateHetero(g, p, globalBatch)
}
