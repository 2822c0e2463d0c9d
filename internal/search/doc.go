// Package search implements adaptive-parallelism plan search over the
// execution engine: the full-space search (the Alpa baseline the paper
// compares against in §5.4) and Arena's space-pruned search (§3.6).
//
// Both searches follow Alpa's structure: enumerate stage candidates
// (operator range × GPU count × intra-stage shape), "profile" each on the
// engine — the expensive step on real hardware — then compose stages into
// pipelines with dynamic programming under a bottleneck bound, and
// finally measure the best few compositions end to end. Search cost is
// accounted in profiled stage candidates and converted to modeled
// wall-clock seconds, calibrated so a 16-GPU full search costs on the
// order of the paper's "20 minutes per allocable resource" (§2.3).
//
// The pruned search consumes the planner's GridPlan for one selected
// grid: instead of every (range × count × shape) candidate it profiles
// only the stage candidates reachable from the grid's Pareto frontier,
// which is what collapses redeployment cost from the full search's
// minutes to seconds (§5.4, Fig. 15).
//
// Every search measures through an evalcache.Cache, so repeated
// candidates are measured once: the caller's Options.Cache, shared across
// degrees, across the full and pruned searches of one point and across
// GPU counts of one perfdb column, or a private cache when it is nil.
// There is one measurement path and one compose DP. A degree's
// candidates are enumerated start-major and handed to the cache's shard
// a start row at a time (evalcache.StageShard.MeasureRows), one lock
// window and one fold per shape per row instead of one per candidate.
// The other execution options change wall-clock only, never results:
// Workers fans candidate profiling out over a pool in chunks, which the
// shard splits into rows, and Progress streams one event per pipeline
// degree searched. TestSearchMatrixDigest pins the outcomes across the
// default workload mix to a digest recorded from the retired serial
// uncached search while both paths ran and agreed.
//
// The compose DP does only the work that can change its answer. Per
// degree it first drops every candidate that an earlier shape of its run
// (same start, end and GPU count) matches or beats on latency: under any
// bound that admits it the earlier shape is admitted too, costs no more
// in every cell by monotone float addition, and keeps a tie by coming
// first. Only the fastest shape of a run is not enough: an earlier,
// slower shape can tie it once rounded into a large total, and the full
// table then picks the earlier one. The bounds the DP runs under are
// still drawn from every candidate's latency. Per bound it then fills
// only the cells that can reach its answer and can be finite: a stage
// covers at least one op and one GPU, which confines level k of a
// deg-stage DP to starts in [deg−k, numOps−k] and GPU counts in
// [k, n−(deg−k)]. Its buffers, with the candidate and latency slices,
// come from a pool: every degree of a search reuses them, and a search
// returns them when it ends (clearing the compose cells' candidate
// pointers first), so the next search of a build starts with them grown.
// Nothing escapes them: the plans a search returns are fresh
// allocations. The 24 bounds are selected at their ranks
// (latencyQuantiles), not read off a full sort. TestComposeMatchesRetired
// holds the DP to a copy of the full-table DP it replaced, bound for
// bound, on random tables and on exact and rounding ties.
package search
