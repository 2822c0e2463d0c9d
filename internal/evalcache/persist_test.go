package evalcache

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/store"
)

// populate measures a handful of stage candidates and one plan through the
// cache, returning the inputs for later comparison.
func populate(t *testing.T, c *Cache) (*model.Graph, hw.GPU, []parallel.StagePlan) {
	t.Helper()
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	spec := hw.MustLookup("A40")
	stages := []parallel.StagePlan{
		{OpStart: 0, OpEnd: 3, DP: 2, TP: 1},
		{OpStart: 3, OpEnd: len(g.Ops), DP: 1, TP: 2},
		{OpStart: 0, OpEnd: len(g.Ops), DP: 4, TP: 1},
	}
	for _, st := range stages {
		c.MeasureStage(g, st, spec, 16, 0)
	}
	if _, err := c.Evaluate(g, parallel.PureDP(g, 4), spec, 128, 0); err != nil {
		t.Fatal(err)
	}
	return g, spec, stages
}

// warmCache populates a cache bound to a fresh store and flushes it.
func warmCache(t *testing.T, st *store.Store) (*model.Graph, hw.GPU, []parallel.StagePlan) {
	t.Helper()
	c := New(exec.NewEngine(42))
	c.AttachStore(st)
	g, spec, stages := populate(t, c)
	if err := c.SaveStore(st); err != nil {
		t.Fatal(err)
	}
	return g, spec, stages
}

// TestStoreRoundTrip proves the cross-process reuse story: a second cache
// backed by the first one's store serves every measurement as a hit, and
// the served values are bit-identical to direct engine measurements.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, spec, stages := warmCache(t, st)

	// A fresh process: new engine (same seed), new cache, warm store.
	eng2 := exec.NewEngine(42)
	c2 := New(eng2)
	c2.AttachStore(st)
	for _, sp := range stages {
		got := c2.MeasureStage(g, sp, spec, 16, 0)
		want := eng2.MeasureStage(g, sp, spec, 16, spec.GPUsPerNode)
		if got != want {
			t.Fatalf("restored measurement diverges for %+v: %+v vs %+v", sp, got, want)
		}
	}
	if s := c2.Stats(); s.StageMisses != 0 {
		t.Fatalf("warm cache re-measured %d stages", s.StageMisses)
	}
	stats := c2.StoreStats()
	if len(stats.Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", stats.Skipped)
	}
	if stats.Shards == 0 || stats.Stages == 0 || stats.Ops == 0 || stats.Plans == 0 {
		t.Fatalf("nothing restored: %+v", stats)
	}

	// A hit-only session is clean: SaveStore must leave the object
	// byte-identical (no rewrite of unchanged contexts).
	objs, err := filepath.Glob(filepath.Join(dir, "eval", "*.json"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("want 1 eval object, got %v (%v)", objs, err)
	}
	path := objs[0]
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SaveStore(st); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("clean context was rewritten on save")
	}
}

// TestStorePlanOnlyUse proves a session that only evaluates plans — never
// measuring stages directly — still hits the persisted plan memo (the
// context hydrates when Evaluate resolves its shard).
func TestStorePlanOnlyUse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, spec, _ := warmCache(t, st)

	c2 := New(exec.NewEngine(42))
	c2.AttachStore(st)
	if _, err := c2.Evaluate(g, parallel.PureDP(g, 4), spec, 128, 0); err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.PlanMisses != 0 || s.PlanHits != 1 {
		t.Fatalf("plan memo not restored: %+v", s)
	}
}

// TestStoreRoundTripOpReuse proves the persisted op table serves stage
// candidates that were never measured as whole stages: a new (range, DP)
// sharing (tp, samples-per-replica) with stored ops assembles from them
// bit-identically.
func TestStoreRoundTripOpReuse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, spec, _ := warmCache(t, st)

	eng2 := exec.NewEngine(42)
	c2 := New(eng2)
	c2.AttachStore(st)
	// (micro=16, DP=2, TP=1) shares spr=8 with the stored {0,3,DP2,TP1}
	// context; the range differs, so this is a stage miss served from ops.
	novel := parallel.StagePlan{OpStart: 1, OpEnd: 5, DP: 2, TP: 1}
	got := c2.MeasureStage(g, novel, spec, 16, 0)
	want := eng2.MeasureStage(g, novel, spec, 16, spec.GPUsPerNode)
	if got != want {
		t.Fatalf("op-assembled measurement diverges: %+v vs %+v", got, want)
	}
	if c2.StoreStats().Ops == 0 {
		t.Fatal("op table was not restored")
	}
}

// TestStoreForeignSeedIgnored verifies content addressing isolates seeds:
// a cache on another seed derives different keys, so it neither restores
// the foreign objects nor warns about them — they are simply not its.
func TestStoreForeignSeedIgnored(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmCache(t, st)

	eng2 := exec.NewEngine(7)
	c2 := New(eng2)
	c2.AttachStore(st)
	g, spec, _ := populate(t, c2)
	_ = g
	_ = spec
	stats := c2.StoreStats()
	if stats.Shards != 0 || stats.Stages != 0 {
		t.Fatalf("foreign-seed objects restored: %+v", stats)
	}
	if len(stats.Skipped) != 0 {
		t.Fatalf("healthy foreign objects must not warn: %v", stats.Skipped)
	}
	if s := c2.Stats(); s.StageMisses == 0 {
		t.Fatal("other seed must measure cold")
	}
}

// TestStoreTruncatedObject verifies the corruption path: a truncated
// object lands in StoreStats.Skipped as a typed *store.Error when its
// context is resolved, and the session transparently re-measures.
func TestStoreTruncatedObject(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmCache(t, st)
	entries, err := os.ReadDir(filepath.Join(dir, "eval"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, "eval", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng2 := exec.NewEngine(42)
	c2 := New(eng2)
	c2.AttachStore(st)
	g, spec, stages := populate(t, c2)
	stats := c2.StoreStats()
	if stats.Shards != 0 {
		t.Fatalf("truncated objects restored: %+v", stats)
	}
	if len(stats.Skipped) != 1 {
		t.Fatalf("want 1 skip for the touched context, got %v", stats.Skipped)
	}
	var se *store.Error
	if !errors.As(stats.Skipped[0], &se) || !errors.Is(stats.Skipped[0], store.ErrCorrupt) {
		t.Fatalf("want *store.Error wrapping ErrCorrupt, got %v", stats.Skipped[0])
	}
	// The rebuild path: values are freshly measured and correct.
	if s := c2.Stats(); s.StageMisses == 0 {
		t.Fatal("expected fresh measurements after corrupt store")
	}
	got := c2.MeasureStage(g, stages[0], spec, 16, 0)
	want := eng2.MeasureStage(g, stages[0], spec, 16, spec.GPUsPerNode)
	if got != want {
		t.Fatalf("rebuild diverges: %+v vs %+v", got, want)
	}
	// SaveStore repairs the object for the next process.
	if err := c2.SaveStore(st); err != nil {
		t.Fatal(err)
	}
	c3 := New(exec.NewEngine(42))
	c3.AttachStore(st)
	c3.MeasureStage(g, stages[0], spec, 16, 0)
	if s := c3.Stats(); s.StageMisses != 0 {
		t.Fatal("repaired store should serve hits")
	}
}

// TestStoreRejectsOutOfRangeStages verifies hydration range-checks stage
// entries: an object holding a stage that starts before op 0, ends at or
// before its start, or ends past the graph is refused whole as ErrStale,
// without a panic, and the session re-measures.
func TestStoreRejectsOutOfRangeStages(t *testing.T) {
	g := model.MustBuildClustered("GPT-1.3B")
	spec := hw.MustLookup("A40")
	ops := int32(len(g.Ops))
	valid := parallel.StagePlan{OpStart: 0, OpEnd: 3, DP: 2, TP: 1}
	for _, tc := range []struct {
		name       string
		start, end int32
	}{
		{"start < 0", -1, 2},
		{"end <= start", 3, 3},
		{"end > ops", 1, ops + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			eng := exec.NewEngine(42)
			m := eng.MeasureStage(g, valid, spec, 16, spec.GPUsPerNode)
			dump := shardDump{
				Seed: eng.Seed(), Graph: g.Name, GPU: spec.Name, GPUsPerNode: spec.GPUsPerNode,
				Stages: []stageEntry{
					{Start: 0, End: 3, DP: 2, TP: 1, MicroBits: math.Float64bits(16), M: m},
					{Start: tc.start, End: tc.end, DP: 2, TP: 1, MicroBits: math.Float64bits(16), M: m},
				},
			}
			key := shardStoreKey(eng.Fingerprint(), GraphFingerprint(g), GPUFingerprint(spec), spec.GPUsPerNode)
			if err := st.Put(evalDomain, key, dump); err != nil {
				t.Fatal(err)
			}

			c := New(eng)
			c.AttachStore(st)
			if got := c.MeasureStage(g, valid, spec, 16, 0); got != m {
				t.Fatalf("re-measured %+v, want %+v", got, m)
			}
			stats := c.StoreStats()
			if len(stats.Skipped) != 1 || !errors.Is(stats.Skipped[0], ErrStale) {
				t.Fatalf("want one ErrStale skip, got %v", stats.Skipped)
			}
			if stats.Shards != 0 || stats.Stages != 0 {
				t.Fatalf("refused object partly restored: %+v", stats)
			}
			if s := c.Stats(); s.StageMisses != 1 || s.StageHits != 0 {
				t.Fatalf("stats %+v, want the valid stage re-measured", s)
			}
		})
	}
}

func TestAttachStoreHydratesInSortedShardOrder(t *testing.T) {
	// AttachStore hydrates every already-resolved context; skipped-object
	// errors land in StoreStats().Skipped in hydration order, which must
	// be the sorted shard-key order (graph, gpu, gpusPerNode), not the
	// shard map's range order. Six stale objects make an accidentally
	// sorted map order vanishingly likely (1/6! per attach), so this
	// fails against a map-range hydration loop.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := model.MustBuildClustered("GPT-1.3B")
	engineFP := exec.NewEngine(42).Fingerprint()
	type shardCtx struct {
		gpu string
		gpn int
	}
	ctxs := []shardCtx{ // sorted shard-key order
		{"A10", 4}, {"A10", 8}, {"A40", 4}, {"A40", 8}, {"V100", 4}, {"V100", 8},
	}
	for _, sc := range ctxs {
		spec := hw.MustLookup(sc.gpu)
		key := shardStoreKey(engineFP, GraphFingerprint(g), GPUFingerprint(spec), sc.gpn)
		stale := shardDump{Seed: 7, Graph: g.Name, GPU: sc.gpu, GPUsPerNode: sc.gpn} // foreign seed
		if err := st.Put(evalDomain, key, stale); err != nil {
			t.Fatal(err)
		}
	}

	var first []string
	for run := 0; run < 4; run++ {
		c := New(exec.NewEngine(42))
		for _, i := range []int{3, 0, 5, 2, 4, 1} { // resolve out of order
			sc := ctxs[i]
			c.StageShard(g, hw.MustLookup(sc.gpu), sc.gpn)
		}
		c.AttachStore(st)
		skipped := c.StoreStats().Skipped
		if len(skipped) != len(ctxs) {
			t.Fatalf("run %d: %d objects skipped, want %d: %v", run, len(skipped), len(ctxs), skipped)
		}
		got := make([]string, len(skipped))
		for i, e := range skipped {
			got[i] = e.Error()
		}
		for i, sc := range ctxs {
			wantFrag := fmt.Sprintf("want %s/%s/gpn=%d", g.Name, sc.gpu, sc.gpn)
			if !strings.Contains(got[i], wantFrag) {
				t.Fatalf("run %d: skip %d = %q, want context %q — hydration out of sorted shard order",
					run, i, got[i], wantFrag)
			}
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("run %d: skip order diverged from run 0:\n%v\nvs\n%v", run, got, first)
		}
	}
}
