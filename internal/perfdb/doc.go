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
// byte-identical for n=8).
// Options.EvalCache substitutes a caller-owned cache — the session
// passes its store-attached one, so even a first-ever build starts from
// measurements persisted by earlier searches. The execution options
// (Workers, EvalCache) change wall-clock only: the determinism tests in
// this package pin a build's entries to a digest recorded from the
// uncached serial build this one replaced, and check shared-cache,
// store-backed and post-cancellation builds against fresh ones bit for
// bit.
//
// BuildOrLoadStore avoids rebuilding: it persists one content-addressed
// object per workload column with partial invalidation — adding a
// workload to a cached request builds exactly the missing column (see
// store.go for the key derivation rules).
package perfdb
