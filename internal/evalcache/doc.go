// Package evalcache provides a concurrency-safe memoization layer between
// the AP searchers and the execution engine.
//
// The engine is a pure function of its seed: measuring the same stage
// candidate (operator range × DP × TP on a given device, with the same
// per-microbatch sample count and node packing) always returns the same
// StageMeasure, and evaluating the same plan always returns the same
// Result. The AP search, however, re-measures overlapping candidate sets
// over and over — across the pipeline degrees of one search, across the
// full and pruned searches of the same (workload, type, count) point, and
// across every GPU count of one perfdb column (a stage candidate measured
// for n=4 is byte-identical for n=8). On real hardware each of those
// measurements is a compile-and-profile cycle; the paper's §2.3 puts the
// un-memoized bill at "20 minutes per allocable resource".
//
// A Cache is bound to one engine and memoizes both measurement entry
// points:
//
//   - MeasureStage — the per-candidate profiling step of the search,
//     keyed by (graph, op range, DP, TP, device, micro-batch samples,
//     GPUs per node);
//   - Evaluate — end-to-end plan measurement, keyed by (graph, plan
//     signature, device, global batch, GPUs per node).
//
// Stages assemble from memoized per-operator measurements (opCtxKey:
// every op under (tp, samples-per-replica)), the op-level
// compute-redundancy elimination of §3.4 — so the search's O(ranges ×
// range-length) kernel measurements collapse to one per distinct
// operator configuration.
//
// A search measures a pipeline degree's candidates a start row at a time
// (StageShard.MeasureRows): the enumeration is start-major, so the
// candidates sharing a start op are contiguous. One read lock per row
// resolves each shape's memo row once and reads the hits in place. The
// misses of a shape are computed by one left fold over their ascending
// ends (exec.Engine.MeasureStageRow): the running sums after op e−1 are
// the same additions from zero that a stage [start, e) makes on its own,
// so every value is bit-identical to a stage measured alone. One write
// lock per row stores the misses. Measure, plan evaluation's path, is a
// row of one candidate, so there is one miss path.
//
// Stats counts a stage read as a miss exactly when the call filled the
// memo slot, and as a hit otherwise: hits plus misses are the reads, and
// misses are the slots filled by measuring. Serially that is every read
// that found its slot empty; under concurrency a reader that computed a
// slot another reader filled first counts a hit, so the counts do not
// depend on how races fall. StageOpSteps counts the op measurements the
// row folds summed. The counters are write-only.
//
// A shard's stage memo is dense: a small map keyed by shape (DP, TP,
// micro-batch samples) whose value holds one row per start op, allocated
// on first use and indexed by end−start−1. A perfdb shard holds about 120
// shapes where a map keyed per candidate grew to thousands of entries,
// and a hit costs one map lookup and two slice indexes. The rows are
// triangular on purpose. A square (ops+1)² table per shape was tried: it
// measured no faster on a cold perfdb build, held 64% more peak heap,
// and would allocate about 56 MB per shape for a 1,000-op graph that
// Session.Evaluate measures a few stages of. Per-start rows keep memory
// proportional to the starts a session touches.
//
// Because the underlying computation is pure, concurrent misses on the
// same key are benign: both goroutines compute the identical value, the
// first write is kept and only that one counts as a miss. Graphs are
// identified by their Name, which the model registry guarantees to
// determine the operator list; callers constructing ad-hoc graphs must
// give distinct names.
//
// The memo lives in memory only and dies with its Cache. Re-measuring
// the analytic engine costs less than decoding a persisted memo would,
// so the one cache persisted across processes is the performance
// database's column store (internal/perfdb).
package evalcache
