package evalcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/store"
)

// This file persists the cache's memo tables through a content-addressed
// store, extending measurement reuse across processes: a CLI invocation
// that profiled a stage candidate leaves its measurement on disk, and the
// next invocation — same seed, same model definitions, same device specs —
// starts with the memo warm and skips even cold-search profiling.
//
// One store object holds one measurement context (what StageShard holds in
// memory): the op-measurement table keyed like opCtxKey, the stage memo,
// and the plan evaluations of that (graph, device, node-packing) triple.
// The object's key hashes everything that determines the measurements:
// the eval schema version, the engine fingerprint (the seed plus every
// effect magnitude the engine's constants hold), the model-graph
// fingerprint (every operator's static quantities), the GPU-spec
// fingerprint, and the node packing.
//
// Loading is lazy and exactly as wide as the session's working set: a
// context's object is read once, when the context is first resolved —
// never sooner. A store shared across seeds, models or weeks of
// accumulated objects costs a session nothing for the objects it does not
// touch, and objects orphaned by definition drift (an edited engine
// constant, an edited model) are simply never looked up, because the
// drifted inputs derive a different key. Saving is equally scoped:
// SaveStore writes only the contexts that gained measurements since they
// were loaded.
const evalSchema = 1

// evalDomain is the store domain the cache persists under.
const evalDomain = "eval"

// ErrStale marks a store object whose payload identity does not match the
// context it was looked up for — a hash-keyed file whose content belongs
// elsewhere — or whose op indexes or stage ranges fall outside the
// context's graph. (Ordinary definition drift never produces ErrStale:
// drifted inputs derive a different key, so the old object is simply not
// found.)
var ErrStale = errors.New("evalcache: store object is stale")

// shardDump is the serializable content of one measurement context.
type shardDump struct {
	Seed        uint64 `json:"seed"`
	Graph       string `json:"graph"`
	GPU         string `json:"gpu"`
	GPUsPerNode int    `json:"gpusPerNode"`

	Stages []stageEntry `json:"stages,omitempty"`
	OpCtxs []opCtxDump  `json:"opCtxs,omitempty"`
	Plans  []planEntry  `json:"plans,omitempty"`
}

// stageEntry flattens one filled slot of the stage memo: the op range
// [Start, End) under the shape (DP, TP, micro-batch samples). The
// micro-batch sample count travels as its exact bit pattern, like the
// in-memory key.
type stageEntry struct {
	Start     int32             `json:"start"`
	End       int32             `json:"end"`
	DP        int32             `json:"dp"`
	TP        int32             `json:"tp"`
	MicroBits uint64            `json:"microBits"`
	M         exec.StageMeasure `json:"m"`
}

// opCtxDump flattens one opCtxKey context: the measured subset of the
// graph's operators under (tp, samples-per-replica).
type opCtxDump struct {
	TP      int32     `json:"tp"`
	SprBits uint64    `json:"sprBits"`
	Ops     []opEntry `json:"ops"`
}

type opEntry struct {
	Index int            `json:"i"`
	M     exec.OpMeasure `json:"m"`
}

// planEntry flattens one end-to-end plan evaluation of the shard's
// context.
type planEntry struct {
	Sig         string      `json:"sig"`
	GlobalBatch int         `json:"globalBatch"`
	Res         exec.Result `json:"res"`
}

// LoadStats reports what a cache has restored from its backing store so
// far, and what it refused.
type LoadStats struct {
	Shards, Stages, Ops, Plans int

	// Skipped collects one typed error per store object that was not
	// restored: *store.Error for corrupt/truncated/version-skewed files,
	// ErrStale for payload-identity mismatches. Skipping is the rebuild
	// path — the session just re-measures — so callers warn, never abort.
	Skipped []error
}

// GraphFingerprint condenses a model graph's static definition — name,
// family, sequence length, activation factor and every operator quantity —
// via its canonical JSON encoding.
func GraphFingerprint(g *model.Graph) string { return jsonFingerprint(g) }

// GPUFingerprint condenses a device specification.
func GPUFingerprint(spec hw.GPU) string { return jsonFingerprint(spec) }

// jsonFingerprint hashes a value's canonical JSON encoding. Go marshals
// struct fields in declaration order, so the encoding — and the
// fingerprint — is deterministic for a fixed schema.
func jsonFingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Fingerprinted types are plain data structs; marshal cannot fail.
		panic(fmt.Sprintf("evalcache: fingerprint %T: %v", v, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:32]
}

// shardStoreKey derives the content address of one measurement context.
func shardStoreKey(engineFP, graphFP, gpuFP string, gpusPerNode int) store.Key {
	return store.NewKey(evalDomain,
		"v"+strconv.Itoa(evalSchema), engineFP, graphFP, gpuFP, strconv.Itoa(gpusPerNode))
}

// AttachStore binds the cache to a backing store. From then on each
// measurement context hydrates from its store object when first resolved
// (contexts the session never touches are never read), and SaveStore
// writes back the contexts that gained measurements. Contexts resolved
// before the attach are hydrated immediately, so attaching to a shared,
// already-warm cache composes.
func (c *Cache) AttachStore(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backing = st
	for _, sh := range c.sortedShardsLocked() {
		c.loadShardLocked(sh)
	}
}

// StoreStats returns a snapshot of what the cache has restored from (and
// refused out of) its backing store so far. Loading is lazy, so the
// counts grow as the session touches more measurement contexts.
func (c *Cache) StoreStats() LoadStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	stats := c.loadStats
	stats.Skipped = append([]error(nil), c.loadStats.Skipped...)
	return stats
}

// loadShardLocked hydrates one shard from the backing store; the caller
// must hold c.mu (StageShard's creation path and AttachStore do).
func (c *Cache) loadShardLocked(sh *StageShard) {
	if c.backing == nil {
		return
	}
	key := shardStoreKey(c.eng.Fingerprint(), GraphFingerprint(sh.graph), GPUFingerprint(sh.spec), sh.gpn)
	var d shardDump
	if err := c.backing.Get(evalDomain, key, &d); err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			c.loadStats.Skipped = append(c.loadStats.Skipped, err)
		}
		return
	}
	// Payload identity must match the context the key was derived from;
	// anything else is a hash collision or tampering the envelope checks
	// missed — refuse it rather than serve foreign measurements.
	if d.Seed != c.eng.Seed() || d.Graph != sh.graph.Name || d.GPU != sh.spec.Name || d.GPUsPerNode != sh.gpn {
		c.loadStats.Skipped = append(c.loadStats.Skipped,
			fmt.Errorf("%w: object %s declares context %s/%s/gpn=%d seed=%d, want %s/%s/gpn=%d seed=%d",
				ErrStale, key, d.Graph, d.GPU, d.GPUsPerNode, d.Seed,
				sh.graph.Name, sh.spec.Name, sh.gpn, c.eng.Seed()))
		return
	}
	numOps := len(sh.graph.Ops)
	for _, e := range d.Stages {
		if e.Start < 0 || e.End <= e.Start || int(e.End) > numOps {
			c.loadStats.Skipped = append(c.loadStats.Skipped,
				fmt.Errorf("%w: object %s: stage [%d, %d) out of range for %s (%d ops)",
					ErrStale, key, e.Start, e.End, sh.graph.Name, numOps))
			return
		}
	}
	for _, oc := range d.OpCtxs {
		for _, op := range oc.Ops {
			if op.Index < 0 || op.Index >= numOps {
				c.loadStats.Skipped = append(c.loadStats.Skipped,
					fmt.Errorf("%w: object %s: op index %d out of range for %s (%d ops)",
						ErrStale, key, op.Index, sh.graph.Name, numOps))
				return
			}
		}
	}

	added := LoadStats{Shards: 1}
	sh.mu.Lock()
	for _, e := range d.Stages {
		if sh.storeLocked(shapeKey{dp: e.DP, tp: e.TP, microBits: e.MicroBits}, int(e.Start), int(e.End), e.M) {
			added.Stages++
		}
	}
	for _, oc := range d.OpCtxs {
		key := opCtxKey{tp: oc.TP, sprBits: oc.SprBits}
		ctx, ok := sh.ops[key]
		if !ok {
			ctx = &opCtx{vals: make([]exec.OpMeasure, numOps), have: make([]bool, numOps)}
			sh.ops[key] = ctx
		}
		ctx.mu.Lock()
		for _, op := range oc.Ops {
			if !ctx.have[op.Index] {
				ctx.vals[op.Index] = op.M
				ctx.have[op.Index] = true
				added.Ops++
			}
		}
		ctx.mu.Unlock()
	}
	sh.mu.Unlock()
	for _, p := range d.Plans {
		k := planKey{graph: sh.graph.Name, sig: p.Sig, gpu: sh.spec.Name, globalBatch: p.GlobalBatch, gpusPerNode: sh.gpn}
		if _, ok := c.plans[k]; !ok {
			c.plans[k] = copyResult(p.Res)
			added.Plans++
		}
	}
	c.loadStats.Shards += added.Shards
	c.loadStats.Stages += added.Stages
	c.loadStats.Ops += added.Ops
	c.loadStats.Plans += added.Plans
}

// SaveStore persists every measurement context that gained measurements
// since it was loaded (clean contexts are left untouched on disk), each
// as one atomically replaced store object. Because a context is hydrated
// before it accumulates new measurements, a save writes a superset of
// what it read; concurrent processes degrade to last-complete-write-wins
// without ever producing a torn object. Without an attached store,
// SaveStore is a no-op.
func (c *Cache) SaveStore(st *store.Store) error {
	engineFP := c.eng.Fingerprint()
	c.mu.RLock()
	shards := c.sortedShardsLocked()
	plans := make(map[planKey]exec.Result, len(c.plans))
	for k, v := range c.plans {
		plans[k] = v
	}
	c.mu.RUnlock()

	for _, sh := range shards {
		sh.mu.Lock()
		if !sh.dirty {
			sh.mu.Unlock()
			continue
		}
		dump := sh.dumpLocked(c.eng.Seed())
		sh.dirty = false
		sh.mu.Unlock()
		for pk, res := range plans {
			if pk.graph == sh.graph.Name && pk.gpu == sh.spec.Name && pk.gpusPerNode == sh.gpn {
				dump.Plans = append(dump.Plans, planEntry{Sig: pk.sig, GlobalBatch: pk.globalBatch, Res: res})
			}
		}
		sort.Slice(dump.Plans, func(i, j int) bool {
			a, b := dump.Plans[i], dump.Plans[j]
			if a.Sig != b.Sig {
				return a.Sig < b.Sig
			}
			return a.GlobalBatch < b.GlobalBatch
		})
		key := shardStoreKey(engineFP, GraphFingerprint(sh.graph), GPUFingerprint(sh.spec), sh.gpn)
		if err := st.Put(evalDomain, key, dump); err != nil {
			sh.mu.Lock()
			sh.dirty = true // not persisted; retry on the next save
			sh.mu.Unlock()
			return err
		}
	}
	return nil
}

// dumpLocked snapshots one shard's memo tables in deterministic order;
// the caller holds sh.mu.
func (sh *StageShard) dumpLocked(seed uint64) shardDump {
	d := shardDump{
		Seed: seed, Graph: sh.graph.Name, GPU: sh.spec.Name, GPUsPerNode: sh.gpn,
	}
	for k, rows := range sh.stages {
		for start, row := range rows {
			for i, slot := range row {
				if slot.ok {
					d.Stages = append(d.Stages, stageEntry{
						Start: int32(start), End: int32(start + i + 1), DP: k.dp, TP: k.tp, MicroBits: k.microBits, M: slot.m,
					})
				}
			}
		}
	}
	sort.Slice(d.Stages, func(i, j int) bool {
		a, b := d.Stages[i], d.Stages[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.DP != b.DP {
			return a.DP < b.DP
		}
		if a.TP != b.TP {
			return a.TP < b.TP
		}
		return a.MicroBits < b.MicroBits
	})
	for k, ctx := range sh.ops {
		ctx.mu.Lock()
		oc := opCtxDump{TP: k.tp, SprBits: k.sprBits}
		for i, have := range ctx.have {
			if have {
				oc.Ops = append(oc.Ops, opEntry{Index: i, M: ctx.vals[i]})
			}
		}
		ctx.mu.Unlock()
		if len(oc.Ops) > 0 {
			d.OpCtxs = append(d.OpCtxs, oc)
		}
	}
	sort.Slice(d.OpCtxs, func(i, j int) bool {
		a, b := d.OpCtxs[i], d.OpCtxs[j]
		if a.TP != b.TP {
			return a.TP < b.TP
		}
		return a.SprBits < b.SprBits
	})
	return d
}
