package sched

import (
	"strings"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
)

// This file is the incremental scoring layer: the structures that make
// per-round policy work proportional to what changed instead of to queue
// depth. Three primitives, each invalidated only when its inputs move:
//
//   - launch ladders (arena): per launch-signature candidate lists —
//     the (type, size, throughput) sequence bestUnderFree iterates, with
//     the thr<=0 filtering and the 1.3× knee break precomputed. A
//     signature's ladder depends only on the performance database, the
//     per-job cap and the cluster's type order, so it is cached for the
//     policy's lifetime and rebuilt only if one of those moves.
//
//   - failure memos (arena, sia): within one Assign round, a failed
//     admission is a pure function of the job's launch signature and the
//     free-capacity vector. Free capacity only shrinks while the phase
//     runs (the one exception — a victim-shrink-enabled arena launch that
//     lands — clears the memo), so an identical later job can skip the
//     whole candidate search: it provably fails too. The memo is the
//     bounded admission window of Algorithm 1's launch phase: only the
//     head-of-queue prefix introducing new signatures does real scoring
//     work, while skipped jobs still lower the blocking bar (line 9).
//     Arena keeps its memo as a stamp on the ladders: a policy counter
//     (failEpoch) is bumped at the start of every Assign and wherever the
//     memo is cleared, a failed launch writes it into the signature's
//     ladder, and a job whose ladder carries the current value is
//     skipped. A job finds its ladder through Job.ladderHint, checked by
//     signature equality, so a memo probe hashes nothing.
//
//   - scale-down costs (arena): GetOptimalScaleDown's per-job cost — the
//     throughput lost per freed GPU by halving a running job at its
//     current round target — changes only when that target does. The
//     round's first scale-down fills one cost per running job; tryLaunch
//     rewrites exactly the entries it stages and reverts, so every later
//     pick is a scan of floats and a round that never scales down pays
//     nothing.
//
//   - GainHeap and DoubleByGain (arena scale-up, elasticflow/sia
//     growth): the marginal-gain loops repeatedly take an argmax over
//     candidates whose gain changes only when that candidate itself is
//     doubled. The heap makes each selection O(log n) and re-scores
//     exactly the one dirtied entry, instead of rescanning every
//     candidate per iteration.
//
// Each cache decides exactly as the full per-round rescan it replaced,
// bit for bit. Those rescans no longer exist in production code: the
// simulator's golden digests (internal/sim/testdata/golden.json) were
// recorded while they still ran beside the caches and matched them on
// every pinned run, and the unit tests of this package keep the argmax
// scan behind GainHeap and the candidate loops behind the launch
// ladders as references written out in the test files.

// launchSig identifies the inputs of one launch-admission decision that
// come from the job itself. Two queued jobs with equal signatures see
// identical candidate ladders, so under equal free capacity their
// admission succeeds or fails identically. Workload is a comparable
// (model, batch) struct; the request fields participate only under the
// ablations that read them.
type launchSig struct {
	w       model.Workload
	reqType string // set only under DisableHetero (pins allowedTypes)
	reqGPUs int    // set only under DisableElastic (pins allowedCounts)
}

// ladderCand is one knee-surviving launch candidate.
type ladderCand struct {
	typ string
	n   int
	thr float64
}

// ladder is a signature's launch candidate list, in the order
// bestUnderFree weighs them: allowedTypes outer, allowedCounts inner,
// zero-throughput entries dropped, each type truncated at the first
// knee-rule violation. Free-capacity and deadline checks stay at use
// time — they are the inputs that move per round.
type ladder struct {
	sig   launchSig
	cands []ladderCand
	// counts is the allowedCounts result (nil in rigid mode when no
	// profiled size fits) — the launch loop's drop check reads it.
	counts []int
	// failedAt is the failEpoch in which a launch of this signature last
	// failed; equal to the policy's current failEpoch, it is the failure
	// memo's hit.
	failedAt uint64
}

// ladderCacheKey fingerprints everything a ladder depends on besides the
// signature. The database pointer stands in for its contents: arena's
// perceived throughputs are static per DB (no online refinement), so the
// same pointer means the same table. noPlanner selects which of its
// tables PerceivedThr reads.
type ladderCacheKey struct {
	db        *perfdb.DB
	maxN      int
	types     string
	noPlanner bool
}

// ensureLadders resets the ladder cache when its inputs moved (different
// database, per-job cap, cluster type order or perceived table — e.g.
// the policy instance reused across simulations). Called once per
// Assign.
func (p *ArenaPolicy) ensureLadders(ctx *Context) {
	key := ladderCacheKey{
		db:        ctx.DB,
		maxN:      ctx.MaxPerJob,
		types:     strings.Join(ctx.Cluster.GPUTypes(), "\x00"),
		noPlanner: p.DisablePlanner,
	}
	if p.ladderOf == nil || p.ladderKey != key {
		p.ladders = nil
		p.ladderOf = map[launchSig]uint32{}
		p.ladderKey = key
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
// it on first use. The job's hint finds it without hashing; a hint that
// names another signature's ladder falls back to the map and is
// rewritten.
func (p *ArenaPolicy) launchLadder(ctx *Context, job *Job) *ladder {
	sig := p.sigOf(job)
	if h := int(job.ladderHint); h > 0 && h <= len(p.ladders) {
		if lad := p.ladders[h-1]; lad.sig == sig {
			return lad
		}
	}
	if h, ok := p.ladderOf[sig]; ok {
		job.ladderHint = h
		return p.ladders[h-1]
	}
	lad := &ladder{sig: sig, counts: p.allowedCounts(ctx, job)}
	for _, typ := range p.allowedTypes(ctx, job) {
		var prevThr float64
		for _, n := range lad.counts {
			thr := p.PerceivedThr(ctx.DB, job.Workload(), typ, n)
			if thr <= 0 {
				continue
			}
			// Knee rule: stop growing on this type once doubling yields
			// under 30% more throughput (diminishing returns, §2.2).
			if prevThr > 0 && thr < prevThr*1.3 {
				break
			}
			prevThr = thr
			lad.cands = append(lad.cands, ladderCand{typ: typ, n: n, thr: thr})
		}
	}
	p.ladders = append(p.ladders, lad)
	p.ladderOf[sig] = uint32(len(p.ladders))
	job.ladderHint = uint32(len(p.ladders))
	return lad
}

// GainHeap selects repeated argmaxes over per-candidate marginal gains,
// breaking ties toward the lowest index — exactly what an index-order
// scan with a strict `>` comparison and a 0.0 floor returns, so a scan
// loop can be replaced by Pop without changing any decision. Candidates
// are dense indices into a caller-side slice; Update re-scores one entry
// (stale copies are discarded lazily on Pop via a per-index version).
// DoubleByGain is the loop every marginal-gain phase runs on it.
type GainHeap struct {
	entries []gainEntry
	version []int
}

type gainEntry struct {
	gain    float64
	idx     int
	version int
}

// NewGainHeap returns a heap over candidate indices [0, n).
func NewGainHeap(n int) *GainHeap {
	return &GainHeap{version: make([]int, n)}
}

// Update (re-)scores candidate idx. Non-positive gains are recorded as
// "not selectable" — the scan semantics this replaces start the argmax
// at 0.0 with a strict comparison — so any queued stale entry is
// invalidated and nothing is pushed.
func (h *GainHeap) Update(idx int, gain float64) {
	h.version[idx]++
	if gain <= 0 {
		return
	}
	h.entries = append(h.entries, gainEntry{gain: gain, idx: idx, version: h.version[idx]})
	h.siftUp(len(h.entries) - 1)
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

// before is the heap order: higher gain first, then lower index — the
// tie-break an index-order scan with strict `>` produces.
func (h *GainHeap) before(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
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
// arena's scale-up and the elasticflow and sia growth phases. Up to
// rounds times it selects the candidate with the highest positive gain
// (ties toward the lowest index in cands) whose GPU type still has cur.N
// free GPUs, doubles its target (keyed by job ID), charges the cur.N
// added GPUs to free and records the new allocation in place. It returns
// the number of doublings made.
//
// gain scores candidate j at target size cur (ok=false marks it
// ineligible) and must depend only on that size: candidates are scored
// once into a GainHeap and only the doubled one is re-scored. Free
// capacity is checked at selection instead; it only shrinks here, so a
// candidate that no longer fits is discarded for good rather than
// re-queued — and one that does not fit at the start is never scored.
func DoubleByGain(cands []*Job, rounds int, target map[string]Alloc, free map[string]int, place map[string]Alloc, gain func(j *Job, cur Alloc) (float64, bool)) int {
	h := NewGainHeap(len(cands))
	for i, j := range cands {
		cur := target[j.Trace.ID]
		if free[cur.GPUType] < cur.N {
			continue
		}
		if g, ok := gain(j, cur); ok {
			h.Update(i, g)
		}
	}
	doubled := 0
	for doubled < rounds {
		i, ok := h.Pop()
		if !ok {
			break
		}
		j := cands[i]
		id := j.Trace.ID
		cur := target[id]
		if free[cur.GPUType] < cur.N {
			continue // permanently infeasible: free never grows here
		}
		next := Alloc{GPUType: cur.GPUType, N: cur.N * 2}
		free[cur.GPUType] -= cur.N
		target[id] = next
		place[id] = next
		doubled++
		if g, ok := gain(j, next); ok {
			h.Update(i, g)
		}
	}
	return doubled
}
