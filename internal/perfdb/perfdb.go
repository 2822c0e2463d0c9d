package perfdb

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
)

// Key addresses one database entry.
type Key struct {
	Workload model.Workload
	GPUType  string
	N        int
}

// Entry holds the three performance views for one resource point.
type Entry struct {
	// DPThr is pure data-parallel throughput; 0 when DP does not fit.
	DPThr float64
	// APThr is the full-search (Alpa) optimal throughput; 0 = infeasible.
	APThr float64
	// APPlan annotates the searched optimal plan (e.g. "PP2,DP2").
	APPlan string
	// ArenaEstThr is the profiler's estimate for the best grid's proxy
	// plan — the number Arena's scheduler uses for decisions.
	ArenaEstThr float64
	// ArenaActualThr is the engine-measured throughput of the plan
	// Arena's pruned search deploys — what an Arena-scheduled job really
	// achieves.
	ArenaActualThr float64
	// ArenaPlan annotates the deployed plan.
	ArenaPlan string

	// SearchTimeFull / SearchTimePruned model the wall-clock AP search
	// cost paid at (re)deployment: baselines pay the full search, Arena
	// the pruned one (§3.6, §5.8).
	SearchTimeFull   float64
	SearchTimePruned float64
}

// DB is the complete database plus per-policy profiling-cost models.
type DB struct {
	GPUTypes []string
	MaxN     int

	// seed records the build engine's determinism seed; persisted columns
	// carry it so a store never serves a column built for another seed.
	seed uint64

	// cols holds one dense column per workload: a lookup hashes the
	// workload once and indexes the (type, count) point (see column).
	cols map[model.Workload]*column
}

// column is everything the database holds for one workload. Its entries
// are dense over the database's grid: slot t*counts + log2(n) holds
// GPUTypes[t] at n GPUs, for every power of two n up to MaxN, so a
// column has exactly len(GPUTypes)*counts entries and no point is
// missing.
type column struct {
	entries []Entry
	// observed holds online-profiled actual throughputs by slot (Sia's
	// refinement loop, Fig. 4(b)); nil until the first observation.
	observed []float64

	// arenaWall is Arena's grid-profiling wall time (single-GPU
	// disaggregated profiling, §5.8: ≈8.5 min at N=16, M=4).
	arenaWall float64
	// dpWall is the full-space DP profiling wall time (ElasticFlow/Gavel-
	// style ahead-of-time measurement, §2.3).
	dpWall float64
	// siaWall is Sia's bootstrap profiling wall time (1-GPU).
	siaWall float64
}

// gridCounts is the number of power-of-two GPU counts up to maxN: the
// per-type stride of a column.
func gridCounts(maxN int) int { return bits.Len(uint(maxN)) }

// slot returns the column slot of (gpuType, n), or false when the point
// is off the grid: an unknown type, or n not a power of two in [1, MaxN].
func (db *DB) slot(gpuType string, n int) (int, bool) {
	if n < 1 || n > db.MaxN || n&(n-1) != 0 {
		return 0, false
	}
	for t, typ := range db.GPUTypes {
		if typ == gpuType {
			return t*gridCounts(db.MaxN) + bits.TrailingZeros(uint(n)), true
		}
	}
	return 0, false
}

// newDB returns an empty database over the options' grid.
func newDB(opts Options, seed uint64) *DB {
	return &DB{
		GPUTypes: opts.GPUTypes,
		MaxN:     opts.MaxN,
		seed:     seed,
		cols:     map[model.Workload]*column{},
	}
}

// Options configure a database build.
type Options struct {
	GPUTypes  []string
	MaxN      int
	Workloads []model.Workload

	// Workers caps the build's total worker budget across both fan-out
	// levels (workloads × points). <= 0 means all cores (GOMAXPROCS); 1
	// builds fully serially. It changes wall-clock only, never results.
	Workers int

	// Progress, when non-nil, receives one "perfdb.build" event per
	// completed (workload, type, count) point. Points fan out over worker
	// pools, so the function may be called concurrently.
	Progress core.ProgressFunc

	// onCache, when non-nil, is handed each model's measurement cache
	// once the model's last workload is built, possibly concurrently.
	// The caches die with the build; TestWorkLedger reads their counters
	// here.
	onCache func(*evalcache.Cache)
}

// maxWorkers resolves the build's worker budget.
func (o Options) maxWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BuildCtx constructs the database by exercising the planner, profiler,
// full and pruned searches on the execution engine for every (workload,
// type, count) combination. When ctx is cancelled the build's worker
// pools drain their in-flight points and BuildCtx returns ctx.Err() with
// a nil database — no goroutine outlives the call.
func BuildCtx(ctx context.Context, eng *exec.Engine, opts Options) (*DB, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.GPUTypes) == 0 {
		return nil, fmt.Errorf("perfdb: no GPU types")
	}
	if opts.MaxN < 1 {
		opts.MaxN = 16
	}
	if len(opts.Workloads) == 0 {
		opts.Workloads = model.Workloads()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db := newDB(opts, eng.Seed())

	ct, err := profiler.OfflineSampleComm(eng, opts.GPUTypes, opts.MaxN)
	if err != nil {
		return nil, err
	}

	// Workloads are independent; build them concurrently. The engine is a
	// pure function of its seed, so concurrency cannot perturb results.
	results := make([]workloadResult, len(opts.Workloads))
	counts := 0
	for n := 1; n <= opts.MaxN; n *= 2 {
		counts++
	}
	sink := &progressSink{fn: opts.Progress, total: len(opts.Workloads) * len(opts.GPUTypes) * counts}
	caches := newModelCaches(eng, opts)
	if err := core.ParallelForCtx(ctx, len(opts.Workloads), opts.maxWorkers(), func(i int) {
		w := opts.Workloads[i]
		results[i] = buildWorkload(ctx, eng, ct, w, caches.get(w.Model), opts, sink)
		caches.done(w.Model)
	}); err != nil {
		return nil, err
	}

	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		db.cols[opts.Workloads[i]] = r.col
	}
	return db, nil
}

// modelCaches hands the workloads of one model a shared measurement
// cache. Every memo key names the graph, and a stage is keyed by its
// micro-batch samples, not the global batch, so a model's batch sizes
// share every stage shape and op context whose samples coincide, while
// two models share nothing. A model's cache is dropped once its last
// workload is built, so a build holds no more memos than it has models
// in flight.
type modelCaches struct {
	eng     *exec.Engine
	onCache func(*evalcache.Cache)

	mu   sync.Mutex
	left map[string]int
	live map[string]*evalcache.Cache
}

// newModelCaches counts the build's workloads of each model.
func newModelCaches(eng *exec.Engine, opts Options) *modelCaches {
	mc := &modelCaches{eng: eng, onCache: opts.onCache, left: map[string]int{}, live: map[string]*evalcache.Cache{}}
	for _, w := range opts.Workloads {
		mc.left[w.Model]++
	}
	return mc
}

// get returns the model's cache, creating it for the first workload.
func (mc *modelCaches) get(model string) *evalcache.Cache {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	c := mc.live[model]
	if c == nil {
		c = evalcache.New(mc.eng)
		mc.live[model] = c
	}
	return c
}

// done counts one of the model's workloads as built. After the last it
// drops the model's cache and hands it to onCache.
func (mc *modelCaches) done(model string) {
	mc.mu.Lock()
	mc.left[model]--
	c, last := mc.live[model], mc.left[model] == 0
	if last {
		delete(mc.live, model)
	}
	mc.mu.Unlock()
	if last && mc.onCache != nil {
		mc.onCache(c)
	}
}

// workloadResult is one workload's contribution to the database.
type workloadResult struct {
	col *column
	err error
}

// pointResult is one (type, count) point's contribution to a workload.
type pointResult struct {
	entry   Entry
	dpWall  float64
	siaWall float64
	err     error
}

// progressSink fans per-point completion events into the caller's
// ProgressFunc with one build-wide done counter.
type progressSink struct {
	fn    core.ProgressFunc
	total int
	done  atomic.Int64
}

func (ps *progressSink) point(w model.Workload, typ string, n int) {
	if ps.fn == nil {
		return
	}
	ps.fn(core.Event{
		Step: "perfdb.build",
		Item: fmt.Sprintf("%s/%s/n=%d", w, typ, n),
		Done: int(ps.done.Add(1)), Total: ps.total,
	})
}

// buildWorkload computes every entry of one workload (all types × counts).
//
// All points of the workload measure through the model's cache: a stage
// candidate measured for the n=4 full search is byte-identical for n=8
// (and for the pruned search of either), so the column's search cost
// collapses to the distinct-candidate set. The points fan out over a
// worker pool; the wall time accumulators are folded serially in (type,
// count) order afterwards so float summation order — and therefore
// every derived number — matches the serial build bit for bit.
func buildWorkload(ctx context.Context, eng *exec.Engine, ct *profiler.CommTable, w model.Workload, cache *evalcache.Cache, opts Options, sink *progressSink) (res workloadResult) {
	g, err := model.BuildClustered(w.Model)
	if err != nil {
		res.err = err
		return res
	}
	// One profiler per workload: its cache models the per-job profiling
	// session (cross-grid redundancy elimination).
	pl := planner.New()
	pr := profiler.New(eng, ct)
	jp, err := profiler.ProfileJobCtx(ctx, pl, pr, g, w, opts.GPUTypes, opts.MaxN, nil)
	if err != nil {
		res.err = err
		return res
	}
	col := &column{arenaWall: jp.TotalProfileGPUTime} // single profiling GPU

	// Concurrency budget: the build already fans out across workloads
	// (GOMAXPROCS-gated) and, below, across this workload's (type, count)
	// points — so searches run with Workers: 1. Splitting the core budget
	// a third time inside profileStageCandidates would only multiply
	// CPU-bound goroutines (GOMAXPROCS³) contending on the shard locks.
	searchOpts := search.Options{Cache: cache, Workers: 1}

	// Points in slot order: types outer, counts inner.
	type point struct {
		typ string
		n   int
	}
	var points []point
	for _, typ := range opts.GPUTypes {
		for n := 1; n <= opts.MaxN; n *= 2 {
			points = append(points, point{typ, n})
		}
	}
	outs := make([]pointResult, len(points))
	// Split the worker budget across the workloads building concurrently
	// so the two fan-out levels multiply to ~budget, not budget².
	budget := opts.maxWorkers()
	workers := max(1, budget/max(1, min(len(opts.Workloads), budget)))
	if err := core.ParallelForCtx(ctx, len(points), workers, func(i int) {
		outs[i] = buildPoint(ctx, eng, g, w, jp, points[i].typ, points[i].n, searchOpts)
		if outs[i].err == nil {
			sink.point(w, points[i].typ, points[i].n)
		}
	}); err != nil {
		res.err = err
		return res
	}

	col.entries = make([]Entry, len(points))
	for i, out := range outs {
		if out.err != nil {
			res.err = out.err
			return res
		}
		col.entries[i] = out.entry
		col.dpWall += out.dpWall
		col.siaWall += out.siaWall
	}
	// Sia cannot bootstrap from a 1-GPU DP profile when the model does
	// not fit one GPU; it falls back to probing a manually partitioned
	// pipeline (§2.2 footnote), which still costs setup time.
	if col.siaWall == 0 {
		col.siaWall = 120
	}
	res.col = col
	return res
}

// buildPoint computes the entry for one (workload, type, count) point.
func buildPoint(ctx context.Context, eng *exec.Engine, g *model.Graph, w model.Workload, jp *profiler.JobProfile, typ string, n int, searchOpts search.Options) (out pointResult) {
	spec := hw.MustLookup(typ)
	e := &out.entry

	// Static DP view.
	dpRes, err := searchOpts.Cache.Evaluate(g, parallel.PureDP(g, n), spec, w.GlobalBatch, spec.GPUsPerNode)
	if err != nil {
		out.err = err
		return out
	}
	if dpRes.Fits {
		e.DPThr = dpRes.Throughput
		// Full DP profiling occupies the n GPUs for warm-up plus
		// measured iterations (the ElasticFlow ahead-of-time pass,
		// ≈10 minutes per job across resources, §1).
		out.dpWall += 30 + dpRes.IterTime*15
		if n == 1 {
			out.siaWall += 30 + dpRes.IterTime*20 // bootstrap
		}
	} else {
		out.dpWall += 15 // OOM probe
	}

	// Adaptive-parallelism optimum (what execution achieves).
	full, err := search.FullSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, searchOpts)
	if err != nil {
		out.err = err
		return out
	}
	e.SearchTimeFull = full.SearchTime
	if full.Feasible() {
		e.APThr = full.Result.Throughput
		e.APPlan = full.Plan.Degrees()
	}

	// Arena's view: best grid estimate + pruned-search plan.
	r := core.Resource{GPUType: typ, N: n}
	if grid, ok := jp.BestGrid(r); ok {
		e.ArenaEstThr = jp.Estimates[grid].Throughput
		pruned, err := search.PrunedSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, jp.GridPlans[grid], searchOpts)
		if err == nil && pruned.Feasible() {
			e.ArenaActualThr = pruned.Result.Throughput
			e.ArenaPlan = pruned.Plan.Degrees()
			e.SearchTimePruned = pruned.SearchTime
		}
	}
	return out
}

// Entry returns the database entry for a point, if present: every point
// of a known workload on the grid (a listed GPU type, a power-of-two
// count up to MaxN) has one, and no other point does.
func (db *DB) Entry(w model.Workload, gpuType string, n int) (*Entry, bool) {
	col, i, ok := db.point(w, gpuType, n)
	if !ok {
		return nil, false
	}
	return &col.entries[i], true
}

// point locates (w, gpuType, n): the workload's column and the point's
// slot in it, or false for an unknown workload or an off-grid point.
func (db *DB) point(w model.Workload, gpuType string, n int) (*column, int, bool) {
	col, ok := db.cols[w]
	if !ok {
		return nil, 0, false
	}
	i, ok := db.slot(gpuType, n)
	return col, i, ok
}

// DPThr returns the static data-parallel throughput view (0 = OOM).
func (db *DB) DPThr(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok {
		return e.DPThr
	}
	return 0
}

// APThr returns the adaptive-parallelism optimum (what jobs achieve).
func (db *DB) APThr(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok {
		return e.APThr
	}
	return 0
}

// ArenaEstThr returns Arena's scheduling estimate.
func (db *DB) ArenaEstThr(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok {
		return e.ArenaEstThr
	}
	return 0
}

// ArenaActualThr returns the throughput of Arena's deployed plan.
func (db *DB) ArenaActualThr(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok {
		if e.ArenaActualThr > 0 {
			return e.ArenaActualThr
		}
	}
	return 0
}

// MinFeasibleAP returns the smallest power-of-two count at which the
// workload runs with adaptive parallelism on the type (0 = never).
func (db *DB) MinFeasibleAP(w model.Workload, gpuType string) int {
	for n := 1; n <= db.MaxN; n *= 2 {
		if db.APThr(w, gpuType, n) > 0 {
			return n
		}
	}
	return 0
}

// MinFeasibleDP returns the smallest power-of-two count at which pure DP
// fits on the type (0 = never) — the demand an SP-aware scheduler
// perceives (§2.2 Case#2).
func (db *DB) MinFeasibleDP(w model.Workload, gpuType string) int {
	for n := 1; n <= db.MaxN; n *= 2 {
		if db.DPThr(w, gpuType, n) > 0 {
			return n
		}
	}
	return 0
}

// SiaEst returns Sia's bootstrapped linear estimate with precision knob η
// (§2.3): allocations up to 2^(η−1) GPUs use precisely profiled data;
// larger ones extrapolate linearly from the smallest profiled point.
//
// Sia schedules with static (data) parallelism, so its feasibility floor
// and bootstrap basis come from the DP view — the §2.2 Case#2 demand
// overestimation: a model trainable on 2 GPUs with AP but needing 8 for
// DP is only ever considered at ≥ 8. When DP fits nowhere on the type,
// Sia falls back to a manually partitioned fixed pipeline (its footnoted
// escape hatch), whose floor and throughput match the AP data.
func (db *DB) SiaEst(w model.Workload, gpuType string, n, eta int) float64 {
	if eta < 1 {
		eta = 1
	}
	minN := db.MinFeasibleDP(w, gpuType)
	manual := false
	base := 0.0
	if minN > 0 {
		base = db.DPThr(w, gpuType, minN)
	} else {
		minN = db.MinFeasibleAP(w, gpuType)
		if minN == 0 {
			return 0
		}
		// A hand-partitioned fixed pipeline runs, but well below the
		// searched AP optimum.
		manual = true
		base = manualPipelineFactor * db.APThr(w, gpuType, minN)
	}
	if n < minN {
		return 0
	}
	if n <= 1<<(eta-1) {
		if manual {
			return manualPipelineFactor * db.APThr(w, gpuType, n)
		}
		return db.APThr(w, gpuType, n)
	}
	return base / float64(minN) * float64(n)
}

// manualPipelineFactor discounts a manually partitioned fixed pipeline
// (Sia's fallback for models that do not fit data parallelism, §2.2
// footnote) against the searched adaptive-parallelism optimum.
const manualPipelineFactor = 0.8

// ResetObservations clears all online-profiled throughputs. The simulator
// calls this at the start of every run so one policy's online refinement
// cannot leak into another experiment sharing the database.
func (db *DB) ResetObservations() {
	for _, col := range db.cols {
		col.observed = nil
	}
}

// Observe records an online-profiled actual throughput (Sia's refinement
// of Fig. 4(b)); ObservedThr serves it back. Only a point with an entry
// can be observed: throughput elsewhere is zero by construction.
func (db *DB) Observe(w model.Workload, gpuType string, n int, thr float64) {
	col, i, ok := db.point(w, gpuType, n)
	if !ok {
		return
	}
	if col.observed == nil {
		col.observed = make([]float64, len(col.entries))
	}
	col.observed[i] = thr
}

// ObservedThr returns a previously observed throughput (0 = none).
func (db *DB) ObservedThr(w model.Workload, gpuType string, n int) float64 {
	col, i, ok := db.point(w, gpuType, n)
	if !ok || col.observed == nil {
		return 0
	}
	return col.observed[i]
}

// col returns the workload's column, or an empty one for an unknown
// workload (whose profiling wall times are zero).
func (db *DB) col(w model.Workload) *column {
	if col, ok := db.cols[w]; ok {
		return col
	}
	return &column{}
}

// ArenaProfileWall returns Arena's per-job profiling wall time: the grid
// proxies are measured on a single fragmented GPU (§3.4), so wall time
// equals the accumulated GPU time.
func (db *DB) ArenaProfileWall(w model.Workload) float64 { return db.col(w).arenaWall }

// DPProfileWall returns the baseline full-space DP profiling wall time.
func (db *DB) DPProfileWall(w model.Workload) float64 { return db.col(w).dpWall }

// SiaProfileWall returns Sia's bootstrap profiling wall time.
func (db *DB) SiaProfileWall(w model.Workload) float64 { return db.col(w).siaWall }

// SearchTimeFull returns the modeled full AP search wall time for a
// deployment point (baselines pay this on every (re)deployment).
func (db *DB) SearchTimeFull(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok {
		return e.SearchTimeFull
	}
	return 0
}

// SearchTimePruned returns Arena's pruned search wall time.
func (db *DB) SearchTimePruned(w model.Workload, gpuType string, n int) float64 {
	if e, ok := db.Entry(w, gpuType, n); ok && e.SearchTimePruned > 0 {
		return e.SearchTimePruned
	}
	return 0
}

// Keys returns all database keys in deterministic order (tests, dumps):
// by workload name, then GPU type name, then count.
func (db *DB) Keys() []Key {
	keys := make([]Key, 0, len(db.cols)*len(db.GPUTypes)*gridCounts(db.MaxN))
	for w, col := range db.cols {
		for i := range col.entries {
			keys = append(keys, db.keyAt(w, i))
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Workload.String() != b.Workload.String() {
			return a.Workload.String() < b.Workload.String()
		}
		if a.GPUType != b.GPUType {
			return a.GPUType < b.GPUType
		}
		return a.N < b.N
	})
	return keys
}

// keyAt is the key of a workload's column slot i, the inverse of slot.
func (db *DB) keyAt(w model.Workload, i int) Key {
	counts := gridCounts(db.MaxN)
	return Key{Workload: w, GPUType: db.GPUTypes[i/counts], N: 1 << (i % counts)}
}
