// Package arena is the public API of the Arena reproduction: a training
// system that co-designs inter-job dynamic scheduling and intra-job
// adaptive parallelism for large models in heterogeneous GPU clusters
// (Xue et al., "Arena: Efficiently Training Large Models via Dynamic
// Scheduling and Adaptive Parallelism Co-Design", EUROSYS 2026).
//
// The library is organized in layers, all re-exported here:
//
//   - Hardware substrate: GPU catalog, roofline model, interconnects and
//     collective cost models (hw).
//   - Model zoo: analytic operator graphs for GPT-3, GShard-MoE and
//     Wide-ResNet (model).
//   - Parallelism plans and the memory-footprint model (parallel).
//   - Execution engine: the deterministic simulated testbed against which
//     every estimator is validated (exec).
//   - The grid abstraction sharding the joint scheduling-parallelism
//     space (core).
//   - The three Arena components: the execution-free parallelism planner,
//     the single-device disaggregated profiler, and the space-pruned AP
//     search (planner, profiler, search).
//   - The stage-measurement cache (evalcache): a concurrency-safe memo
//     table between the searchers and the engine. The engine is a pure
//     function of its seed, so a stage candidate measured once is reused
//     across the pipeline degrees of one search, across the full and
//     pruned searches of a deployment point, and across every GPU count
//     of a perfdb column. Every search measures through one (a private
//     cache when search.Options.Cache is nil). With it, candidate
//     profiling inside a search and the types × counts loop of a database
//     build both fan out over worker pools with bit-identical results
//     (search.Options wires both into FullSearchCtx/PrunedSearchCtx).
//   - The cluster scheduler: Arena's generalized event-driven policy plus
//     the FCFS/Gavel/ElasticFlow/Sia baselines (sched, sched/policy).
//   - The discrete-event cluster simulator, trace synthesis, performance
//     database and metrics (sim, trace, perfdb, metrics).
//
// # Quick start
//
// A Session is the one wiring path through the pipeline: it owns the
// engine, planner, profiler, communication table, stage-measurement cache
// and performance database, and exposes every stage as a context-aware
// method.
//
//	s, _ := arena.New(arena.WithSeed(42), arena.WithGPUTypes("A40"))
//	ctx := context.Background()
//
//	// Plan a grid (4 GPUs, 2 pipeline stages) without any execution.
//	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
//	gp, _ := s.Plan(ctx, arena.Grid{Workload: w, GPUType: "A40", N: 4, S: 2})
//
//	// Measure the proxy plan on the simulated testbed.
//	graph := arena.MustBuildModel("GPT-1.3B")
//	res, _ := s.Evaluate(ctx, graph, gp.Proxy.Plan, "A40", 128)
//	fmt.Printf("%s: %.1f samples/s\n", gp.Proxy.Plan, res.Throughput)
//
//	// Or run the whole deployment pipeline (plan → profile → pruned
//	// search) for a resource in one call:
//	out, _ := s.Search(ctx, w, "A40", 4)
//
// Long-running methods (BuildPerfDB, FullSearch/PrunedSearch/Search,
// ProfileJob, Simulate) stop promptly when their context is cancelled,
// returning ctx.Err() without leaking goroutines, and stream progress to
// the WithProgress callback. Uncancelled, their results are bit-identical
// to running the same pipeline stages directly on a fresh engine.
//
// # The measurement store
//
// Every expensive artifact in the pipeline is a deterministic function of
// its inputs: the engine is a pure function of its seed, so a whole
// performance-database column is reusable whenever its inputs repeat.
// WithStore persists the columns in a content-addressed on-disk store
// (internal/store), the reproduction's analogue of the paper's profiled
// database file (§A.4.4). Columns are keyed by hashes of (engine seed and
// constants, model-graph fingerprint, GPU-spec fingerprint, workload
// params, schema version), so
//
//   - BuildPerfDB rebuilds only the workload columns the store lacks —
//     adding one workload profiles that workload alone;
//   - changing any input (a model definition, a device spec, the seed)
//     invalidates exactly the columns derived from it, for free.
//
// Op and stage measurements and plan evaluations are memoized in memory
// only: re-measuring the analytic engine costs less than decoding them
// back from disk would.
//
// The cmd tools expose this uniformly as -store (alongside the equally
// uniform -seed and -workers); each reads and writes the columns of the
// database it builds there:
//
//	arena-sim     -policy all -trace philly -store ./measurements
//	arena-bench   -fig fig11 -store ./measurements
//	arena-plan    -model GPT-1.3B -gpu A40 -n 8 -store ./measurements
//	arena-profile -model WRes-1B -gpu A40 -n 4 -store ./measurements
//
// See examples/ for runnable programs and cmd/arena-bench for the full
// reproduction of the paper's evaluation.
package arena

import (
	"io"

	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// --- Hardware substrate ---

// GPU is a device specification (catalog entry).
type GPU = hw.GPU

// ClusterSpec describes a heterogeneous cluster as typed regions.
type ClusterSpec = hw.ClusterSpec

// Topology identifies a communicator group's physical span.
type Topology = hw.Topology

// GPUCatalog returns the Table 1 device catalog.
func GPUCatalog() map[string]GPU { return hw.Catalog() }

// MustGPU returns a catalog device or panics.
func MustGPU(name string) GPU { return hw.MustLookup(name) }

// The paper's evaluation clusters (§5.1).
var (
	ClusterA            = hw.ClusterA
	ClusterB            = hw.ClusterB
	ClusterSim          = hw.ClusterSim
	ClusterBHomogeneous = hw.ClusterBHomogeneous
)

// --- Models ---

// Graph is a model's operator graph.
type Graph = model.Graph

// Op is one (clustered) operator.
type Op = model.Op

// Workload pairs a model with a global batch size.
type Workload = model.Workload

// BuildModel constructs the clustered operator graph for a Table 2 model
// variant ("GPT-1.3B", "MoE-2.4B", "WRes-1B", ...).
func BuildModel(name string) (*Graph, error) { return model.BuildClustered(name) }

// MustBuildModel is BuildModel or panic.
func MustBuildModel(name string) *Graph { return model.MustBuildClustered(name) }

// ModelNames lists every available model variant.
func ModelNames() []string { return model.Names() }

// --- Parallelism plans ---

// Plan is a hybrid parallelism plan (pipeline stages × DP × TP).
type Plan = parallel.Plan

// StagePlan is one pipeline stage's operator range and intra-stage shape.
type StagePlan = parallel.StagePlan

// PureDP returns the single-stage pure data-parallel plan.
func PureDP(g *Graph, n int) *Plan { return parallel.PureDP(g, n) }

// PureTP returns the single-stage pure tensor-parallel plan.
func PureTP(g *Graph, n int) *Plan { return parallel.PureTP(g, n) }

// PlanMemory returns the plan's peak per-GPU footprint and feasibility.
func PlanMemory(g *Graph, p *Plan, spec GPU, globalBatch int) (float64, bool) {
	return parallel.PlanMemory(g, p, spec, globalBatch)
}

// --- Execution engine (simulated testbed) ---

// Engine is the deterministic execution engine.
type Engine = exec.Engine

// ExecResult is an engine measurement.
type ExecResult = exec.Result

// NewEngine returns an engine seeded for reproducibility.
func NewEngine(seed uint64) *Engine { return exec.NewEngine(seed) }

// --- Grid abstraction (the paper's core idea, §3.2) ---

// Grid is one subspace of the joint scheduling-parallelism space.
type Grid = core.Grid

// Resource is a grid's (type, count) scheduling coordinate.
type Resource = core.Resource

// EnumerateGrids lists a workload's grids over types and counts.
func EnumerateGrids(w Workload, numOps int, gpuTypes []string, maxN int) []Grid {
	return core.Enumerate(w, numOps, gpuTypes, maxN)
}

// PipelineDegrees lists the candidate pipeline degrees for n GPUs of a
// model with numOps clustered operators.
func PipelineDegrees(n, numOps int) []int { return core.PipelineDegrees(n, numOps) }

// GiB is the byte size the facade reports GPU memory in.
const GiB = hw.GiB

// --- Planner (§3.3) ---

// Planner is the execution-free load-aware parallelism planner.
type Planner = planner.Planner

// GridPlan is the planner's per-grid output (proxy + Pareto frontier).
type GridPlan = planner.GridPlan

// PlanCandidate is one candidate plan with its planning metrics.
type PlanCandidate = planner.Candidate

// NewPlanner returns a planner with paper defaults.
func NewPlanner() *Planner { return planner.New() }

// --- Profiler (§3.4) ---

// Profiler performs single-device disaggregated profiling.
type Profiler = profiler.Profiler

// CommTable is the offline-sampled communication latency table.
type CommTable = profiler.CommTable

// ProfileEstimate is a profiled grid estimate.
type ProfileEstimate = profiler.Estimate

// JobProfile aggregates a job's profiled grids.
type JobProfile = profiler.JobProfile

// NewProfiler returns a profiler over an engine and a sampled table.
func NewProfiler(eng *Engine, ct *CommTable) *Profiler { return profiler.New(eng, ct) }

// ProfileTrials is the profiler's measured repetitions per unique
// operator configuration; pass it to DirectMeasureCost to bill direct
// measurement the same way.
const ProfileTrials = profiler.Trials

// --- AP search (§3.6) ---

// SearchOutcome is a search result with cost accounting.
type SearchOutcome = search.Outcome

// --- Stage-measurement cache ---

// EvalCache memoizes stage measurements and plan evaluations for one
// engine; share one across searches to eliminate redundant profiling.
type EvalCache = evalcache.Cache

// EvalCacheStats reports cache hit/miss counters.
type EvalCacheStats = evalcache.Stats

// NewEvalCache returns an empty cache bound to the engine.
func NewEvalCache(eng *Engine) *EvalCache { return evalcache.New(eng) }

// --- Scheduling ---

// Policy is a cluster scheduling policy with its knowledge models.
type Policy = sched.Policy

// ArenaPolicy is Arena's generalized event-driven scheduler (Algorithm 1).
type ArenaPolicy = sched.ArenaPolicy

// Objective selects the scheduling goal (throughput, deadline, fairness).
type Objective = sched.Objective

// Scheduling objectives (§3.5).
const (
	ObjThroughput = sched.ObjThroughput
	ObjDeadline   = sched.ObjDeadline
	ObjFairness   = sched.ObjFairness
)

// NewArenaPolicy returns the paper-default Arena scheduler.
func NewArenaPolicy() *ArenaPolicy { return sched.NewArena() }

// Baseline schedulers (§5.1).
var (
	NewFCFS        = policy.NewFCFS
	NewGavel       = policy.NewGavel
	NewElasticFlow = policy.NewElasticFlow
	NewSia         = policy.NewSia
)

// --- Cluster state, traces, performance database, simulation ---

// Cluster tracks runtime allocation state with buddy locality.
type Cluster = cluster.Cluster

// NewCluster builds a fully free cluster from a spec.
func NewCluster(spec ClusterSpec) (*Cluster, error) { return cluster.New(spec) }

// TraceJob is one synthetic trace record.
type TraceJob = trace.Job

// TraceConfig drives trace synthesis.
type TraceConfig = trace.Config

// GenerateTrace synthesizes a deterministic production-shaped trace.
func GenerateTrace(cfg TraceConfig) ([]TraceJob, error) { return trace.Generate(cfg) }

// TraceSource streams trace jobs on demand — SimConfig.Source's type.
type TraceSource = trace.Source

// SliceTraceSource wraps an in-memory trace as a streaming TraceSource.
func SliceTraceSource(jobs []TraceJob) TraceSource { return trace.SliceSource(jobs) }

// StreamTrace builds a streaming synthetic-trace source: same workload
// mixtures as GenerateTrace, Poisson arrivals shaped per trace family,
// O(1) memory regardless of NumJobs.
func StreamTrace(cfg TraceConfig) (TraceSource, error) { return trace.Stream(cfg) }

// Trace configurations from the paper (§5.1–5.3).
var (
	PhillySixHour = trace.PhillySixHour
	PhillyWeek    = trace.PhillyWeek
	HeliosDay     = trace.HeliosDay
	PAIDay        = trace.PAIDay
)

// DefaultWorkloads is the trace generator's workload mix — the default
// coverage of a Session's performance database.
func DefaultWorkloads() []Workload { return trace.DefaultWorkloads() }

// DirectMeasureCost models the GPU-time bill of measuring a plan directly
// on its full allocation (the baseline the disaggregated profiler is
// compared against, §5.5).
func DirectMeasureCost(res ExecResult, p *Plan, trials int) float64 {
	return exec.DirectMeasureCost(res, p, trials)
}

// PerfDB is the performance database all schedulers consult.
type PerfDB = perfdb.DB

// SimConfig drives one cluster simulation.
type SimConfig = sim.Config

// SimResult is a simulation outcome with aggregated metrics.
type SimResult = sim.Result

// Summary aggregates scheduling statistics (JCT, queuing, throughput).
type Summary = metrics.Summary

// --- Fault injection (internal/faults) ---

// FaultsConfig drives deterministic fault injection in Simulate: Poisson
// crash/recovery and straggler processes, scripted failure traces,
// checkpoint-restart accounting, and the retry/backoff policy.
type FaultsConfig = faults.Config

// FaultModel is the stochastic crash/straggler model every node runs.
type FaultModel = faults.Model

// TypeFaults parameterizes a node's fault processes.
type TypeFaults = faults.TypeFaults

// FaultEvent is one scripted or generated fault occurrence.
type FaultEvent = faults.Event

// FaultSchedule is a time-ordered fault-event sequence.
type FaultSchedule = faults.Schedule

// ParseFaultTrace reads a scripted failure trace (one event per line;
// malformed lines are rejected with a typed error).
func ParseFaultTrace(r io.Reader) (FaultSchedule, error) { return faults.ParseTrace(r) }

// LoadFaultTrace reads a scripted failure trace from a file.
func LoadFaultTrace(path string) (FaultSchedule, error) { return faults.LoadTrace(path) }

// --- Intra-job heterogeneity extension (§6) ---

// HeteroPool is a per-type GPU budget for one job.
type HeteroPool = planner.HeteroPool

// HeteroPlan is a pipeline whose stages run on different GPU types.
type HeteroPlan = exec.HeteroPlan

// HeteroStage is one stage of a heterogeneous pipeline.
type HeteroStage = exec.HeteroStage

// PlanHetero partitions a model across a mixed GPU pool with
// capability-weighted stage assignment (§6's intra-job heterogeneity).
func PlanHetero(pl *Planner, g *Graph, pool HeteroPool, s, globalBatch int) (*HeteroPlan, error) {
	return pl.PlanHetero(g, pool, s, globalBatch)
}
