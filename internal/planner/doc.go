// Package planner implements Arena's load-aware, execution-free parallelism
// planning (§3.3). For each grid (fixed resource and pipeline degree) it:
//
//  1. computes roofline-based operator loads L_i = FLOPs_i / R(I_i) from
//     static model information and hardware specifications only (Eq. 2);
//  2. enumerates the C(O−1, s−1) contiguous stage partitions, assigns each
//     stage GPUs proportional to its load, and normalizes the assignment to
//     powers of two by minimizing the computation-bias metric b_comp, the
//     Euclidean distance to the ideal fractional assignment (Eq. 3);
//  3. selects intra-stage parallelism per stage by minimizing analytic
//     communication cost within memory limits;
//  4. scores each candidate with the communication-load metric l_comm
//     (Eq. 4), deduces the Pareto frontier over (b_comp, l_comm), reduces
//     it when oversized, and picks the proxy plan: minimum computation
//     bias first, then minimum communication load.
//
// Everything here is execution-free: only hardware specs and operator
// shape arithmetic are consulted, never measured latencies.
//
// # Enumeration
//
// Step 2 runs on the incremental prefix DP of dp.go, streaming into a
// candidateSink: partitions are walked as a tree of boundary choices,
// per-stage fractional shares and the power-of-two assignment DP's rows
// are keyed to the deepest boundary they depend on and computed once per
// frontier extension instead of once per partition, each row over only
// the GPU counts its stage suffix can reach, and stage ranges that fit
// device memory at no GPU count prune their whole subtree.
//
// # Shared tables
//
// A cold build plans every grid of a job, and step 3's selections do not
// depend on the grid's N. The Planner therefore keeps one intra-stage
// table per pipeline degree for the (graph, GPU type, global batch) it
// planned last, and PlanGrid and EnumerateCandidates take the table for
// their S and put it back (intra.go, planner.go): a job computes each
// (S, operator range, GPU count) selection once. Communication is priced
// on the GPU spec the table holds, not looked up by name per collective.
//
// # Pareto reduction
//
// PlanGrid fuses step 4's reduction into emission: the incremental sweep
// of frontier.go maintains the (b_comp, l_comm) staircase online, rejects
// dominated candidates at O(log F) insertion time without materializing
// them, and queries intra-stage selection lazily — a candidate's
// communication scan stops at the first stage that proves domination.
//
// # References
//
// Both fast paths replaced references that now live only in the tests
// (reference_test.go): the exhaustive enumerator that evaluates every
// partition from scratch, and the post-hoc reduction that materializes
// the population, sorts it and sweeps once. Exact metric ties resolve by
// lexicographic partition rank everywhere, so all four enumerator ×
// reduction combinations emit bit-identical GridPlans, which the
// determinism tests check against production PlanGrid (the stability
// analysis and proof obligations are spelled out in dp.go, frontier.go
// and docs/ARCHITECTURE.md).
//
// PlanHetero extends the same partition machinery to mixed GPU pools
// (§6): stages stay internally homogeneous, each pinned to one type with
// capability-proportional GPU shares.
package planner
