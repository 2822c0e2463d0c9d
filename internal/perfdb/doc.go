// Package perfdb builds and serves the performance database that every
// scheduler consults — the reproduction of the paper's
// ./database/prof_database.pkl (§A.4.4). For each (workload, GPU type,
// GPU count) it records three views of job performance:
//
//   - the static data-parallel view (what SP-aware schedulers profile),
//   - the adaptive-parallelism optimum (what jobs actually achieve at
//     runtime, §5.1: baselines execute with AP),
//   - Arena's view: the profiler's estimate used for scheduling and the
//     engine-measured throughput of the pruned-search plan used when the
//     job runs.
//
// The gaps between these views are the paper's Case#1 (inverted
// allocation) and Case#2 (demand overestimation) pathologies, and the
// η-knob of §2.3 interpolates between Sia's linear bootstrap and fully
// precise data.
//
// # Building and reuse
//
// Build exercises the planner, profiler and both AP searches for every
// (workload, type, count) point; grid planning runs the planner's
// default fast paths — the prefix-DP enumerator streaming into the
// incremental Pareto sweep, which is where a cold build's planning cost
// concentrates (see docs/ARCHITECTURE.md §planner) — while workloads
// fan out over a worker pool and all points of a workload share stage
// measurements through an evalcache (a candidate measured for n=4 is
// byte-identical for n=8). The workloads of one model share a cache, so
// its batch sizes reuse the stage shapes whose micro-batch samples
// coincide; the cache dies once the model's last column is built.
// Workers changes wall-clock only: the determinism tests in this package
// pin a build's entries to a digest recorded from the uncached serial
// build this one replaced, and check store-backed and post-cancellation
// builds against fresh ones bit for bit.
//
// # Column layout
//
// A DB holds one dense column per workload, not a map over every
// (workload, type, count) key. A column is a []Entry with one slot per
// grid point: slot t*counts + log2(n) holds GPUTypes[t] at n GPUs, where
// counts is the number of powers of two up to MaxN. Every point of a
// known workload on that grid has an entry and no other point does, so
// Entry answers (nil, false) for n = 0, a count that is not a power of
// two, a count past MaxN, an unknown type or an unknown workload. A
// lookup hashes the workload once and indexes the rest: the throughput
// and search-time views the schedulers query every round (DPThr,
// ArenaEstThr, SearchTimePruned, …) cost one model.Workload hash, not a
// four-field Key hash. The column also holds the workload's three
// profiling wall times and the online observations Observe records.
// Keys lists the columns' points by workload name, type name and count.
//
// BuildOrLoadStore avoids rebuilding: it persists one content-addressed
// object per workload column with partial invalidation — adding a
// workload to a cached request builds exactly the missing column (see
// store.go for the key derivation rules). The columns are the only
// measurements any tool persists; the evalcache's memo stays in memory.
// A stored column is used only if it is the request's column point for
// point: the same seed, model, batch, GPU types and MaxN, and exactly
// one entry per grid point. Any other column is reported as
// store.ErrCorrupt in StoreStats.Skipped and rebuilt.
package perfdb
