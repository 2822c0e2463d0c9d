package sched

import (
	"math"
	"math/bits"
	"slices"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
)

// This file is the incremental scoring layer: the structures that make
// per-round policy work proportional to what changed instead of to queue
// depth. Its primitives, each invalidated only when its inputs move:
//
//   - launch ladders (arena): per launch-signature candidate lists —
//     the (type index, size, throughput) sequence bestUnderFree
//     iterates, with the thr<=0 filtering and the 1.3× knee break
//     precomputed. A signature's ladder depends only on the performance
//     database, the per-job cap, the cluster's type order and the
//     ablation switches its lookups read, so it is cached for the
//     policy's lifetime and rebuilt only if one of those moves.
//
//   - per-signature tables (arena): each ladder also holds the policy's
//     PerceivedThr and DeployOverhead at every (cluster type,
//     power-of-two count up to the per-job cap), filled when the ladder
//     is built. Every throughput and overhead read of a round — launch
//     candidates, scale-down and scale-up scores, straggler moves, the
//     deadline drop test — indexes a job's table, which the job reaches
//     through its ladder hint; after a signature's first use no round
//     calls the database for it. The tables hold the same float64 values
//     the calls return, and every formula reading them is evaluated as it
//     was on the calls.
//
//   - failure memos (arena, sia): within one Assign round, a failed
//     admission is a pure function of the job's launch signature and the
//     free-capacity vector. Free capacity only shrinks while the phase
//     runs (the one exception — a victim-shrink-enabled arena launch that
//     lands — clears the memo), so an identical later job can skip the
//     whole candidate search: it provably fails too. The memo is the
//     bounded admission window of Algorithm 1's launch phase: only the
//     head-of-queue prefix introducing new signatures does real scoring
//     work. A skipped job never lowers the blocking bar (line 9): launch
//     order never lowers the live priority, so the failure that stamped
//     its signature came first and already lowered the bar to at most
//     the job's priority. Arena keeps its memo as a stamp on the ladders:
//     a policy counter (failEpoch) is bumped at the start of every Assign
//     and wherever the memo is cleared, a failed launch writes it into
//     the signature's ladder, and a ladder carrying the current value
//     parks the signature's launch FIFOs.
//
//   - launch FIFOs (arena, fifo.go): the queue filed by (original
//     priority, launch signature) on the signature's ladder, each FIFO
//     sorted by (SubmittedAt, QueueSeq) and so already in launch order.
//     The engine's Context.Changes feeds them the jobs that entered the
//     queue; an entry dies when its job leaves the queue or is requeued
//     under a new QueueSeq. Each round merges the FIFO heads lazily, so
//     the launch phase visits the jobs it attempts or drops and one head
//     per parked FIFO, not the queue. A context without Changes, another
//     engine's, a skipped round or a ladder reset refiles Queued whole.
//
//   - scale-down costs (arena): GetOptimalScaleDown's per-job cost — the
//     throughput lost per freed GPU by halving a running job at its
//     current round target — changes only when that target does. The
//     round's first scale-down fills one cost per running job, into a
//     slice kept between rounds behind a filled-this-round flag; tryLaunch
//     rewrites exactly the entries it stages and reverts, so every later
//     pick is a scan of floats and a round that never scales down pays
//     nothing. Staged victim shrinks live in tryLaunch's own list and the
//     round's Targets; they reach the assignment only when the launch
//     they enable lands, so a failed attempt restores two slices and
//     nothing else.
//
//   - Targets, GainHeap and DoubleByGain (arena scale-up, elasticflow/sia
//     growth): a round's free capacity and targets are slices indexed by
//     cluster type and by in-flight job, not maps keyed by name. The
//     marginal-gain loops repeatedly take an argmax over candidates
//     whose gain changes only when that candidate itself is doubled. The
//     heap makes each selection O(log n) and re-scores exactly the one
//     dirtied entry, instead of rescanning every candidate per iteration.
//     Equal gains go to the lower index (elasticflow, sia) or, for
//     arena, to the lower job ID, so arena's choice does not depend on
//     the order of its running set and needs no per-round sort. Each
//     policy keeps one Targets, heap included, and Reset refills it
//     every round.
//
// Each cache decides exactly as the full per-round rescan it replaced,
// bit for bit. Those rescans no longer exist in production code: the
// simulator's golden digests (internal/sim/testdata/golden.json) were
// recorded while they still ran beside the caches and matched them on
// every pinned run, and the unit tests of this package keep the argmax
// scan behind GainHeap, the ID-sorted rescan behind DoubleByGain, the
// candidate loops behind the launch ladders, the direct database calls
// behind the tables and the promote-sort-visit launch loop behind the
// FIFO merge as references written out in the test files.

// launchSig identifies the inputs of one launch-admission decision that
// come from the job itself. Two queued jobs with equal signatures see
// identical candidate ladders, so under equal free capacity their
// admission succeeds or fails identically. Workload is a comparable
// (model, batch) struct; the request fields participate only under the
// ablations that read them. The switches themselves are part of the
// cache key (ladderCacheKey), so a signature never outlives a flip.
type launchSig struct {
	w       model.Workload
	reqType string // set only under DisableHetero (pins allowedTypes)
	reqGPUs int    // set only under DisableElastic (pins allowedCounts)
}

// ladderCand is one knee-surviving launch candidate: n GPUs of the
// cluster's t-th type.
type ladderCand struct {
	t   int
	n   int
	thr float64
}

// ladder is a signature's launch candidate list, in the order
// bestUnderFree weighs them: allowedTypes outer, allowedCounts inner,
// zero-throughput entries and types outside the cluster dropped, each
// type truncated at the first knee-rule violation. Free-capacity and
// deadline checks stay at use time — they are the inputs that move per
// round.
type ladder struct {
	sig   launchSig
	cands []ladderCand
	// counts is the allowedCounts result (nil in rigid mode when no
	// profiled size fits) — the launch loop's drop check reads it.
	counts []int
	// thr and deploy are the signature's tables: PerceivedThr and
	// DeployOverhead at n GPUs of the cluster's t-th type, in slot
	// t*stride + log2(n) for every power of two n up to the per-job cap
	// (see ArenaPolicy.slot).
	thr, deploy []float64
	// failedAt is the failEpoch in which a launch of this signature last
	// failed; equal to the policy's current failEpoch, it is the failure
	// memo's hit.
	failedAt uint64
	// fifos are the signature's launch FIFOs, one per original priority
	// (see fifo.go).
	fifos []*launchFIFO
}

// ladderCacheKey fingerprints everything a ladder and its tables depend
// on besides the signature and the cluster's type order (kept in
// ArenaPolicy.types). The database pointer stands in for its contents,
// the per-job cap (its MaxN) included: arena's perceived throughputs are
// static per DB (no online refinement), so the same pointer means the
// same table. The switches are every ablation a ladder reads:
// DisablePlanner picks the perceived table, DisablePruning the
// deployment overhead, and DisableHetero and DisableElastic the allowed
// types and counts — and, with them, whether the signature carries the
// request at all.
type ladderCacheKey struct {
	db *perfdb.DB

	noPlanner, noPruning, noHetero, noElastic bool
}

// ensureLadders resets the ladder cache when its inputs moved (different
// database, cluster type order, or a flipped ablation switch — e.g. the
// policy instance reused across simulations). Called once per Assign.
func (p *ArenaPolicy) ensureLadders(ctx *Context) {
	key := ladderCacheKey{
		db:        ctx.DB,
		noPlanner: p.DisablePlanner,
		noPruning: p.DisablePruning,
		noHetero:  p.DisableHetero,
		noElastic: p.DisableElastic,
	}
	types := ctx.Cluster.GPUTypes()
	if p.ladderOf == nil || p.ladderKey != key || !slices.Equal(p.types, types) {
		p.ladders = nil
		p.ladderOf = map[launchSig]uint32{}
		p.ladderKey = key
		p.types = types
		// The launch FIFOs hang off the ladders: syncQueue refiles the
		// queue.
		p.fifos, p.changes = nil, nil
	}
}

// sigOf builds the job's launch signature under the active ablations.
func (p *ArenaPolicy) sigOf(job *Job) launchSig {
	sig := launchSig{w: job.Trace.Workload}
	if p.DisableHetero {
		sig.reqType = job.Trace.ReqType
	}
	if p.DisableElastic {
		sig.reqGPUs = job.Trace.ReqGPUs
	}
	return sig
}

// launchLadder returns the signature's cached candidate ladder, building
// it and its tables on first use. The job's hint finds it without
// hashing; a hint that names another signature's ladder falls back to the
// map and is rewritten.
func (p *ArenaPolicy) launchLadder(ctx *Context, job *Job) *ladder {
	sig := p.sigOf(job)
	if h := int(job.ladderHint); h > 0 && h <= len(p.ladders) {
		if lad := p.ladders[h-1]; lad.sig == sig {
			return lad
		}
	}
	if h, ok := p.ladderOf[sig]; ok {
		job.ladderHint = hintOf(h)
		return p.ladders[h-1]
	}
	lad := &ladder{sig: sig, counts: p.allowedCounts(ctx, job)}
	stride := bits.Len(uint(p.ladderKey.db.MaxN))
	lad.thr = make([]float64, len(p.types)*stride)
	lad.deploy = make([]float64, len(p.types)*stride)
	for t, typ := range p.types {
		for k := 0; k < stride; k++ {
			lad.thr[t*stride+k] = p.PerceivedThr(ctx.DB, sig.w, typ, 1<<k)
			lad.deploy[t*stride+k] = p.DeployOverhead(ctx.DB, sig.w, typ, 1<<k)
		}
	}
	for _, typ := range p.allowedTypes(job) {
		t := slices.Index(p.types, typ)
		if t < 0 {
			continue // no capacity outside the cluster: nothing fits there
		}
		var prevThr float64
		for _, n := range lad.counts {
			thr := p.thrOf(ctx, lad, typ, n)
			if thr <= 0 {
				continue
			}
			// Knee rule: stop growing on this type once doubling yields
			// under 30% more throughput (diminishing returns, §2.2).
			if prevThr > 0 && thr < prevThr*1.3 {
				break
			}
			prevThr = thr
			lad.cands = append(lad.cands, ladderCand{t: t, n: n, thr: thr})
		}
	}
	p.ladders = append(p.ladders, lad)
	p.ladderOf[sig] = uint32(len(p.ladders))
	job.ladderHint = hintOf(uint32(len(p.ladders)))
	return lad
}

// hintOf returns the ladder hint for 1 + a ladder's index: itself while
// it fits a Job's hint, else 0 (no hint).
func hintOf(h uint32) uint16 {
	if h > math.MaxUint16 {
		return 0
	}
	return uint16(h)
}

// slot returns the table slot of n GPUs of type typ, or -1 when the
// point is off the tables: a type outside the cluster, or n not a power
// of two in [1, the per-job cap].
func (p *ArenaPolicy) slot(typ string, n int) int {
	maxN := p.ladderKey.db.MaxN
	if n < 1 || n > maxN || n&(n-1) != 0 {
		return -1
	}
	for t, name := range p.types {
		if name == typ {
			return t*bits.Len(uint(maxN)) + bits.TrailingZeros(uint(n))
		}
	}
	return -1
}

// thrOf returns p.PerceivedThr for the ladder's workload on n GPUs of
// type typ: a table read, or the database call for a point off the
// tables.
func (p *ArenaPolicy) thrOf(ctx *Context, lad *ladder, typ string, n int) float64 {
	if i := p.slot(typ, n); i >= 0 {
		return lad.thr[i]
	}
	return p.PerceivedThr(ctx.DB, lad.sig.w, typ, n)
}

// deployOf is thrOf for p.DeployOverhead.
func (p *ArenaPolicy) deployOf(ctx *Context, lad *ladder, typ string, n int) float64 {
	if i := p.slot(typ, n); i >= 0 {
		return lad.deploy[i]
	}
	return p.DeployOverhead(ctx.DB, lad.sig.w, typ, n)
}

// Targets is one Assign round's allocation state, indexed instead of
// keyed by name: free capacity per cluster type, and a target per
// in-flight job — ctx.Running's jobs in order, then each of the round's
// launches, appended as it lands. A running job's target starts at its
// current grant. The round's decisions are published separately, in the
// Assignment's Place map.
//
// A policy keeps one Targets and refills it with Reset at the top of
// every Assign, so a round reuses the last round's slices, and those of
// the scale-up heap, instead of allocating them: Reset overwrites every
// element the round reads, so what a buffer held before cannot reach a
// decision.
type Targets struct {
	Types  []string // the cluster's GPU types, in its order
	Free   []int    // free GPUs of Types[t]
	Jobs   []*Job   // the in-flight jobs
	Target []Alloc  // Jobs[i]'s allocation after this round's decisions

	// heap is DoubleByGain's, kept with its buffers.
	heap GainHeap
}

// Reset refills ts for the round in ctx: the free capacity of each of
// types (the cluster's type order, which ts shares), then ctx.Running in
// order at its current grants. It keeps ts's buffers and clears the
// job pointers the last round left in them, so a kept Targets holds no
// job past the next round's Reset.
func (ts *Targets) Reset(ctx *Context, types []string) {
	ts.Types = types
	ts.Free = resize(ts.Free, len(types))
	for t, typ := range types {
		ts.Free[t] = ctx.Cluster.FreeGPUs(typ)
	}
	clear(ts.Jobs)
	ts.Jobs = append(ts.Jobs[:0], ctx.Running...)
	ts.Target = ts.Target[:0]
	for _, j := range ctx.Running {
		ts.Target = append(ts.Target, j.Alloc)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TypeIndex returns typ's position in Types, or -1 for a type outside
// the cluster.
func (ts *Targets) TypeIndex(typ string) int {
	for t, name := range ts.Types {
		if name == typ {
			return t
		}
	}
	return -1
}

// FreeOf returns the free GPUs of type typ: none outside the cluster.
func (ts *Targets) FreeOf(typ string) int {
	if t := ts.TypeIndex(typ); t >= 0 {
		return ts.Free[t]
	}
	return 0
}

// Launch appends job j to the round on n GPUs of the t-th type, charges
// them to Free and returns the allocation.
func (ts *Targets) Launch(j *Job, t, n int) Alloc {
	a := Alloc{GPUType: ts.Types[t], N: n}
	ts.Jobs = append(ts.Jobs, j)
	ts.Target = append(ts.Target, a)
	ts.Free[t] -= n
	return a
}

// GainHeap selects repeated argmaxes over per-candidate marginal gains.
// Equal gains go to the lower key, then to the lower index; with no keys
// that is exactly what an index-order scan with a strict `>` comparison
// and a 0.0 floor returns, so a scan loop can be replaced by Pop without
// changing any decision. Candidates are dense indices into a caller-side
// slice; Update re-scores one entry (stale copies are discarded lazily on
// Pop via a per-index version). DoubleByGain is the loop every
// marginal-gain phase runs on it, on the heap its Targets keeps.
type GainHeap struct {
	entries []gainEntry
	version []int
	// keys, when set before the first Update, are the candidates' tie
	// keys by index; empty breaks ties by index alone.
	keys []string
}

type gainEntry struct {
	gain    float64
	key     string
	idx     int
	version int
}

// reset empties the heap for candidate indices [0, n), with no tie keys,
// keeping its buffers and dropping the strings they held.
func (h *GainHeap) reset(n int) {
	clear(h.entries[:cap(h.entries)])
	h.entries = h.entries[:0]
	h.version = resize(h.version, n)
	clear(h.version)
	clear(h.keys)
	h.keys = h.keys[:0]
}

// Update (re-)scores candidate idx. Non-positive gains are recorded as
// "not selectable" — the scan semantics this replaces start the argmax
// at 0.0 with a strict comparison — so any queued stale entry is
// invalidated and nothing is pushed.
func (h *GainHeap) Update(idx int, gain float64) {
	if h.add(idx, gain) {
		h.siftUp(len(h.entries) - 1)
	}
}

// add is Update without restoring the heap order: it appends the entry
// and reports whether it did. heapify restores the order of a batch of
// adds in one pass.
func (h *GainHeap) add(idx int, gain float64) bool {
	h.version[idx]++
	if gain <= 0 {
		return false
	}
	e := gainEntry{gain: gain, idx: idx, version: h.version[idx]}
	if len(h.keys) > 0 {
		e.key = h.keys[idx]
	}
	h.entries = append(h.entries, e)
	return true
}

// heapify orders entries appended by add into a heap, bottom-up in
// linear time. Pop's sequence does not depend on the layout: before is a
// strict order on live entries, so the same entries pop in the same
// order however the heap was built.
func (h *GainHeap) heapify() {
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Pop removes and returns the current best candidate index, or ok=false
// when no selectable candidate remains.
func (h *GainHeap) Pop() (idx int, ok bool) {
	for len(h.entries) > 0 {
		top := h.entries[0]
		last := len(h.entries) - 1
		h.entries[0] = h.entries[last]
		h.entries = h.entries[:last]
		if len(h.entries) > 0 {
			h.siftDown(0)
		}
		if top.version == h.version[top.idx] {
			return top.idx, true
		}
		// Stale: the candidate was re-scored after this entry was pushed.
	}
	return 0, false
}

// before is the heap order: higher gain first, then lower key, then
// lower index — the tie-break an index-order scan with strict `>`
// produces over candidates sorted by key.
func (h *GainHeap) before(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.idx < b.idx
}

func (h *GainHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.entries[i], h.entries[parent]) {
			return
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *GainHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		best := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && h.before(h.entries[c], h.entries[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h.entries[i], h.entries[best] = h.entries[best], h.entries[i]
		i = best
	}
}

// DoubleByGain is the bounded marginal-gain doubling loop shared by
// arena's scale-up and the elasticflow and sia growth phases, over every
// in-flight job of ts. Up to rounds times it selects the job with the
// highest positive gain whose GPU type still has as many free GPUs as
// its target holds, doubles the target, charges the added GPUs to
// ts.Free and records the new allocation in place. Equal gains go to the
// lower job ID when byID is set, else to the lower index in ts.Jobs. It
// returns the number of doublings made.
//
// gain scores job i at target size cur (ok=false marks it ineligible)
// and must depend only on that size: candidates are scored once into a
// GainHeap and only the doubled one is re-scored. Free capacity is
// checked at selection instead; it only shrinks here, so a candidate
// that no longer fits is discarded for good rather than re-queued — and
// one that does not fit at the start is never scored. A target on a type
// outside the cluster never fits.
func DoubleByGain(ts *Targets, rounds int, byID bool, place map[*Job]Alloc, gain func(i int, cur Alloc) (float64, bool)) int {
	h := &ts.heap
	h.reset(len(ts.Jobs))
	if byID {
		for _, j := range ts.Jobs {
			h.keys = append(h.keys, j.Trace.ID)
		}
	}
	fits := func(t int, cur Alloc) bool { return t >= 0 && ts.Free[t] >= cur.N }
	for i, cur := range ts.Target {
		if !fits(ts.TypeIndex(cur.GPUType), cur) {
			continue
		}
		if g, ok := gain(i, cur); ok {
			h.add(i, g)
		}
	}
	h.heapify()
	doubled := 0
	for doubled < rounds {
		i, ok := h.Pop()
		if !ok {
			break
		}
		cur := ts.Target[i]
		t := ts.TypeIndex(cur.GPUType)
		if !fits(t, cur) {
			continue // permanently infeasible: free never grows here
		}
		next := Alloc{GPUType: cur.GPUType, N: cur.N * 2}
		ts.Free[t] -= cur.N
		ts.Target[i] = next
		place[ts.Jobs[i]] = next
		doubled++
		if g, ok := gain(i, next); ok {
			h.Update(i, g)
		}
	}
	return doubled
}
