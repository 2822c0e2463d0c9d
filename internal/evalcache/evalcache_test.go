package evalcache

import (
	"reflect"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

func testGraph(t *testing.T) *model.Graph {
	t.Helper()
	g, err := model.BuildClustered("GPT-1.3B")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMeasureStageMatchesEngine(t *testing.T) {
	eng := exec.NewEngine(42)
	c := New(eng)
	g := testGraph(t)
	spec := hw.MustLookup("A40")

	st := parallel.StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 2, TP: 2}
	want := eng.MeasureStage(g, st, spec, 16, spec.GPUsPerNode)
	for i := 0; i < 3; i++ {
		got := c.MeasureStage(g, st, spec, 16, spec.GPUsPerNode)
		if got != want {
			t.Fatalf("cached measurement diverged: got %+v want %+v", got, want)
		}
	}
	if s := c.Stats(); s.StageMisses != 1 || s.StageHits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits", s)
	}
}

func TestDistinctKeysDoNotAlias(t *testing.T) {
	eng := exec.NewEngine(42)
	c := New(eng)
	g := testGraph(t)
	spec := hw.MustLookup("A40")

	a := c.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 4, DP: 2, TP: 1}, spec, 16, spec.GPUsPerNode)
	b := c.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 4, DP: 1, TP: 2}, spec, 16, spec.GPUsPerNode)
	if a == b {
		t.Fatal("DP2 and TP2 shapes must measure differently")
	}
	// Same shape, different sample count.
	d := c.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 4, DP: 2, TP: 1}, spec, 8, spec.GPUsPerNode)
	if a == d {
		t.Fatal("different micro-batch samples must measure differently")
	}
	if s := c.Stats(); s.StageMisses != 3 {
		t.Errorf("want 3 distinct entries, stats %+v", s)
	}
}

func TestEvaluateMatchesEngineAndCopies(t *testing.T) {
	eng := exec.NewEngine(42)
	c := New(eng)
	g := testGraph(t)
	spec := hw.MustLookup("A40")
	plan := parallel.PureDP(g, 4)

	want, err := eng.EvaluateMeasured(eng, g, plan, spec, 128, spec.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Evaluate(g, plan, spec, 128, spec.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached evaluate diverged:\n got %+v\nwant %+v", got, want)
	}
	// Mutating a returned result must not poison the cache.
	got.StageTime[0] = -1
	again, err := c.Evaluate(g, plan, spec, 128, spec.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("cache entry was mutated through a returned result")
	}
	if s := c.Stats(); s.PlanMisses != 1 || s.PlanHits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", s)
	}
}

func TestEvaluateErrorNotCached(t *testing.T) {
	eng := exec.NewEngine(42)
	c := New(eng)
	g := testGraph(t)
	spec := hw.MustLookup("A40")
	plan := parallel.PureDP(g, 4)

	if _, err := c.Evaluate(g, plan, spec, 0, spec.GPUsPerNode); err == nil {
		t.Fatal("want error for batch 0")
	}
	if len(c.plans) != 0 {
		t.Fatalf("error was cached: %d plan entries", len(c.plans))
	}
}

func TestConcurrentAccess(t *testing.T) {
	eng := exec.NewEngine(42)
	c := New(eng)
	g := testGraph(t)
	spec := hw.MustLookup("A40")

	want := eng.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 6, DP: 2, TP: 1}, spec, 16, spec.GPUsPerNode)
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Mix one shared key with per-goroutine keys.
				got := c.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 6, DP: 2, TP: 1}, spec, 16, spec.GPUsPerNode)
				if got != want {
					t.Errorf("concurrent read diverged")
					return
				}
				c.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 1 + k%6, DP: 1, TP: 1}, spec, float64(1+i%4), spec.GPUsPerNode)
			}
		}(k)
	}
	wg.Wait()
	// One shared key plus 6 ends × 4 micro-batch sizes: however the races
	// fall, each distinct key is one miss and every other read a hit.
	if s := c.Stats(); s.StageMisses != 25 || s.StageHits+s.StageMisses != 16*50*2 {
		t.Errorf("%d reads of 25 distinct keys counted %d hits and %d misses", 16*50*2, s.StageHits, s.StageMisses)
	}
}
