package evalcache

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// shardKey identifies a measurement context: everything about a stage
// measurement that stays fixed across one search session.
type shardKey struct {
	graph       string
	gpu         string
	gpusPerNode int
}

// shapeKey identifies one stage shape within a shard: every operator
// range measured under (DP, TP, micro-batch samples). Micro-batch sample
// counts are keyed by their exact bit pattern so distinct fractional
// sample sizes never alias.
type shapeKey struct {
	dp, tp    int32
	microBits uint64
}

// stageSlot is one memoized stage measurement; ok marks a filled slot.
type stageSlot struct {
	m  exec.StageMeasure
	ok bool
}

// opCtxKey identifies one operator-measurement context within a shard:
// every op of the graph measured under (tp, samples-per-replica). Keying
// on samples-per-replica rather than (microbatch, DP) lets (micro=16,
// DP=2) and (micro=32, DP=4) share measurements — the op-level
// compute-redundancy elimination of §3.4. Within a context, ops index a
// flat slice, so stage assembly pays one lock and one map lookup total.
type opCtxKey struct {
	tp      int32
	sprBits uint64
}

// opCtx lazily materializes per-op measurements for one context.
type opCtx struct {
	mu   sync.Mutex
	vals []exec.OpMeasure
	have []bool
}

// planKey identifies one end-to-end plan evaluation.
type planKey struct {
	graph       string
	sig         string
	gpu         string
	globalBatch int
	gpusPerNode int
}

// Stats reports cache effectiveness counters. A stage read is a miss
// exactly when it filled its memo slot, and a hit otherwise, so
// StageHits+StageMisses counts the reads and StageMisses the slots
// filled by measuring, also when concurrent readers race for one slot.
// StageOpSteps counts the op measurements summed into stage misses: one
// per op of each row fold. The counters are write-only: they enter no
// digest.
type Stats struct {
	StageHits, StageMisses int
	StageOpSteps           int
	PlanHits, PlanMisses   int
}

// Cache memoizes engine measurements. Construct with New; the zero value
// is not usable.
type Cache struct {
	eng *exec.Engine

	mu     sync.RWMutex
	shards map[shardKey]*StageShard
	plans  map[planKey]exec.Result

	stageHits, stageMisses atomic.Int64
	stageOpSteps           atomic.Int64
	planHits, planMisses   atomic.Int64
}

// New returns an empty cache bound to the engine.
func New(eng *exec.Engine) *Cache {
	return &Cache{
		eng:    eng,
		shards: map[shardKey]*StageShard{},
		plans:  map[planKey]exec.Result{},
	}
}

// Engine returns the engine this cache memoizes.
func (c *Cache) Engine() *exec.Engine { return c.eng }

// StageShard is the cache's view of one measurement context: a (graph,
// device, node-packing) triple. A search session resolves its shard once
// and hands it a degree's candidates row by row (MeasureRows): one read
// lock and one small map lookup per shape and start op, two slice
// indexes per candidate.
// Shards share the parent cache's counters, so reuse still spans searches
// (full ↔ pruned, every GPU count of a column).
type StageShard struct {
	cache *Cache
	graph *model.Graph
	spec  hw.GPU
	gpn   int

	mu sync.RWMutex
	// stages is the stage memo: per shape, one row per start op, allocated
	// on first use and indexed by end−start−1.
	stages map[shapeKey][][]stageSlot
	ops    map[opCtxKey]*opCtx
}

// StageShard returns (creating on first use) the shard for a measurement
// context. The graph is identified by name; passing a different graph
// under a cached name returns the original context's shard. A
// gpusPerNode < 1 means the catalog default, exactly as the engine
// treats it — normalized here so the default and explicit spellings of
// one context share a shard.
func (c *Cache) StageShard(g *model.Graph, spec hw.GPU, gpusPerNode int) *StageShard {
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	key := shardKey{graph: g.Name, gpu: spec.Name, gpusPerNode: gpusPerNode}
	c.mu.RLock()
	sh, ok := c.shards[key]
	c.mu.RUnlock()
	if ok {
		return sh
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh, ok := c.shards[key]; ok {
		return sh
	}
	sh = &StageShard{
		cache: c, graph: g, spec: spec, gpn: gpusPerNode,
		stages: map[shapeKey][][]stageSlot{},
		ops:    map[opCtxKey]*opCtx{},
	}
	c.shards[key] = sh
	return sh
}

// Measure returns the engine's measurement of one stage candidate in this
// shard's context, computing it at most once per distinct key. The stage
// must lie in the graph: 0 ≤ OpStart < OpEnd ≤ len(Ops), as every
// validated plan's stages and every search candidate do. Misses
// assemble the stage from memoized per-operator measurements (the stage
// loop is pure summation in the engine's own order, so the result is bit
// identical to a direct MeasureStage), which collapses the search's
// O(ranges × range-length) kernel measurements to one per distinct
// operator configuration. It is a row of one candidate: MeasureRows'
// path, with its counting.
func (sh *StageShard) Measure(st parallel.StagePlan, microSamples float64) exec.StageMeasure {
	scr := rowPool.Get().(*rowScratch)
	row := [1]parallel.StagePlan{st}
	var m exec.StageMeasure
	sh.measureRow(scr, row[:], microSamples, func(_ int, sm exec.StageMeasure) { m = sm })
	rowPool.Put(scr)
	return m
}

// MeasureRows writes the per-microbatch latency (StageMeasure.Time) of
// each stage candidate sts[i] into times[i], measuring every distinct key
// at most once, as Measure does. It reads and fills the memo one start
// row at a time: sts splits into maximal runs that share an OpStart (a
// start-major enumeration such as the search's gives one run per start
// op), and each run takes one read lock for its hits, one fold per shape
// over the ascending ends it missed, and one write lock to store them.
// Every stage must lie in the graph, as for Measure.
func (sh *StageShard) MeasureRows(sts []parallel.StagePlan, microSamples float64, times []float64) {
	scr := rowPool.Get().(*rowScratch)
	for lo := 0; lo < len(sts); {
		hi := lo + 1
		for hi < len(sts) && sts[hi].OpStart == sts[lo].OpStart {
			hi++
		}
		out := times[lo:hi]
		sh.measureRow(scr, sts[lo:hi], microSamples, func(i int, m exec.StageMeasure) { out[i] = m.Time() })
		lo = hi
	}
	rowPool.Put(scr)
}

// rowScratch holds measureRow's buffers. rowPool lends them out, so a
// row allocates nothing beyond the memo rows it fills.
type rowScratch struct {
	shapes  []rowShape
	shapeOf []int32 // per candidate: its shape's index, or -1 for a hit
	order   []int32 // the misses' candidate indexes, grouped by shape
	ends    []int
	ms      []exec.StageMeasure // the misses' measurements, aligned with order
}

// rowShape is one (DP, TP) shape of a row.
type rowShape struct {
	key    shapeKey
	slots  []stageSlot // the shape's memo row for the start op; nil until first filled
	n, off int         // the shape's misses and their offset into order
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// find returns the index of key among the row's shapes, or -1. A
// start-major enumeration lists a row's shapes in the same order at every
// end, so the shape after the last one found is tried first.
func (scr *rowScratch) find(key shapeKey, last int) int {
	if next := last + 1; next < len(scr.shapes) && scr.shapes[next].key == key {
		return next
	}
	for j := range scr.shapes {
		if scr.shapes[j].key == key {
			return j
		}
	}
	return -1
}

// measureRow measures row, whose candidates share one start op, and hands
// each candidate's measurement to emit. One read lock resolves each
// shape's memo row once and reads the hits in place; the misses go to
// fill. A read counts as a miss only when fill filled its slot.
func (sh *StageShard) measureRow(scr *rowScratch, row []parallel.StagePlan, microSamples float64, emit func(i int, m exec.StageMeasure)) {
	start := row[0].OpStart
	microBits := math.Float64bits(microSamples)
	scr.shapeOf = slices.Grow(scr.shapeOf[:0], len(row))[:len(row)]
	missed, last := 0, -1
	sh.mu.RLock()
	for i, st := range row {
		key := shapeKey{dp: int32(st.DP), tp: int32(st.TP), microBits: microBits}
		j := scr.find(key, last)
		if j < 0 {
			j = len(scr.shapes)
			var slots []stageSlot
			if rows := sh.stages[key]; rows != nil {
				slots = rows[start]
			}
			scr.shapes = append(scr.shapes, rowShape{key: key, slots: slots})
		}
		last = j
		if slots := scr.shapes[j].slots; slots != nil && slots[st.OpEnd-start-1].ok {
			emit(i, slots[st.OpEnd-start-1].m)
			scr.shapeOf[i] = -1
			continue
		}
		scr.shapeOf[i] = int32(j)
		scr.shapes[j].n++
		missed++
	}
	sh.mu.RUnlock()
	hits := len(row) - missed
	if missed > 0 {
		filled := sh.fill(scr, row, microSamples, missed, emit)
		hits += missed - filled
		sh.cache.stageMisses.Add(int64(filled))
	}
	sh.cache.stageHits.Add(int64(hits))
	// The pooled scratch must not keep the shard's memo rows alive.
	clear(scr.shapes)
	scr.shapes = scr.shapes[:0]
}

// fill measures a row's misses, stores them and emits them, and reports
// how many memo slots it filled. Each shape's misses are computed by one
// fold over their ascending ends; one write lock stores them all. A slot
// a concurrent reader filled meanwhile keeps its first value (an equal
// one: the engine is pure), and that read counts as a hit.
func (sh *StageShard) fill(scr *rowScratch, row []parallel.StagePlan, microSamples float64, missed int, emit func(i int, m exec.StageMeasure)) (filled int) {
	start := row[0].OpStart
	// Group the misses by shape, in row order within a shape.
	off := 0
	for j := range scr.shapes {
		s := &scr.shapes[j]
		s.off, off, s.n = off, off+s.n, 0
	}
	scr.order = slices.Grow(scr.order[:0], missed)[:missed]
	for i, j := range scr.shapeOf {
		if j >= 0 {
			s := &scr.shapes[j]
			scr.order[s.off+s.n] = int32(i)
			s.n++
		}
	}
	byEnd := func(a, b int32) int { return cmp.Compare(row[a].OpEnd, row[b].OpEnd) }
	scr.ms = slices.Grow(scr.ms[:0], missed)[:missed]
	steps := 0
	for j := range scr.shapes {
		s := &scr.shapes[j]
		if s.n == 0 {
			continue
		}
		group := scr.order[s.off : s.off+s.n]
		if !slices.IsSortedFunc(group, byEnd) {
			slices.SortStableFunc(group, byEnd)
		}
		ends := scr.ends[:0]
		for _, i := range group {
			ends = append(ends, row[i].OpEnd)
		}
		scr.ends = ends
		steps += sh.fold(row[group[0]], microSamples, ends, scr.ms[s.off:s.off+s.n])
	}
	sh.cache.stageOpSteps.Add(int64(steps))

	sh.mu.Lock()
	for j := range scr.shapes {
		s := &scr.shapes[j]
		if s.n == 0 {
			continue
		}
		slots := sh.rowLocked(s.key, start)
		for k, i := range scr.order[s.off : s.off+s.n] {
			if slot := &slots[row[i].OpEnd-start-1]; !slot.ok {
				*slot = stageSlot{m: scr.ms[s.off+k], ok: true}
				filled++
			}
		}
	}
	sh.mu.Unlock()
	for k, i := range scr.order {
		emit(int(i), scr.ms[k])
	}
	return filled
}

// fold measures the stages [st.OpStart, ends[k]) of st's shape into
// out[k] with one engine row fold over the shape's op context, and
// returns the op measurements it summed. It is the cache's one copy of
// the miss arithmetic.
func (sh *StageShard) fold(st parallel.StagePlan, microSamples float64, ends []int, out []exec.StageMeasure) int {
	spr := microSamples / float64(st.DP) // samples per replica per microbatch
	ctx := sh.opContext(opCtxKey{tp: int32(st.TP), sprBits: math.Float64bits(spr)})
	eng := sh.cache.eng
	// One lock spans the fold: per-op work inside is either a slice read
	// or a rare pure computation filling the context in.
	ctx.mu.Lock()
	eng.MeasureStageRow(sh.graph, st, ends, sh.spec, sh.gpn, func(i int) exec.OpMeasure {
		if !ctx.have[i] {
			ctx.vals[i] = eng.MeasureOp(sh.graph.Ops[i], sh.spec, spr, st.TP, sh.gpn)
			ctx.have[i] = true
		}
		return ctx.vals[i]
	}, out)
	ctx.mu.Unlock()
	return ends[len(ends)-1] - st.OpStart
}

// rowLocked returns the memo row of start op `start` under key,
// allocating it, and the shape's row table, on first use. The caller
// holds sh.mu for writing.
func (sh *StageShard) rowLocked(key shapeKey, start int) []stageSlot {
	rows := sh.stages[key]
	if rows == nil {
		rows = make([][]stageSlot, len(sh.graph.Ops))
		sh.stages[key] = rows
	}
	if rows[start] == nil {
		rows[start] = make([]stageSlot, len(sh.graph.Ops)-start)
	}
	return rows[start]
}

// opContext returns (creating on first use) the per-(tp, spr) operator
// measurement context.
func (sh *StageShard) opContext(key opCtxKey) *opCtx {
	sh.mu.RLock()
	ctx, ok := sh.ops[key]
	sh.mu.RUnlock()
	if ok {
		return ctx
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ctx, ok := sh.ops[key]; ok {
		return ctx
	}
	n := len(sh.graph.Ops)
	ctx = &opCtx{vals: make([]exec.OpMeasure, n), have: make([]bool, n)}
	sh.ops[key] = ctx
	return ctx
}

// MeasureStage returns the engine's measurement of one stage candidate,
// computing it at most once per distinct key. Hot loops should resolve
// the StageShard once instead and call Measure on it.
func (c *Cache) MeasureStage(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int) exec.StageMeasure {
	return c.StageShard(g, spec, gpusPerNode).Measure(st, microSamples)
}

// Evaluate returns the engine's end-to-end measurement of a plan,
// computing it at most once per distinct key. Errors (invalid plans,
// bad batch sizes) are never cached. The returned Result owns its
// StageTime slice; callers may mutate it freely.
func (c *Cache) Evaluate(g *model.Graph, p *parallel.Plan, spec hw.GPU, globalBatch, gpusPerNode int) (exec.Result, error) {
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode // match StageShard: one key per context
	}
	key := planKey{
		graph: g.Name, sig: parallel.StagesKey(p.Stages) + "#" + strconv.Itoa(p.NumMicrobatches),
		gpu: spec.Name, globalBatch: globalBatch, gpusPerNode: gpusPerNode,
	}
	c.mu.RLock()
	res, ok := c.plans[key]
	c.mu.RUnlock()
	if ok {
		c.planHits.Add(1)
		return copyResult(res), nil
	}
	// Evaluate through the cache's own stage measurements: the engine
	// re-measures every stage of the plan during evaluation, and a search
	// has typically profiled each of them already.
	res, err := c.eng.EvaluateMeasured(c, g, p, spec, globalBatch, gpusPerNode)
	if err != nil {
		return res, err
	}
	c.mu.Lock()
	c.plans[key] = res
	c.mu.Unlock()
	c.planMisses.Add(1)
	return copyResult(res), nil
}

// copyResult detaches the mutable slice so cached entries stay pristine.
func copyResult(res exec.Result) exec.Result {
	if res.StageTime != nil {
		st := make([]float64, len(res.StageTime))
		copy(st, res.StageTime)
		res.StageTime = st
	}
	return res
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{
		StageHits:    int(c.stageHits.Load()),
		StageMisses:  int(c.stageMisses.Load()),
		StageOpSteps: int(c.stageOpSteps.Load()),
		PlanHits:     int(c.planHits.Load()),
		PlanMisses:   int(c.planMisses.Load()),
	}
}
