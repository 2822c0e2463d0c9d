package search

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// TestMeasureRowsMatchEngine holds the shard's row path to the engine on
// every candidate list the full and pruned searches enumerate for two
// models on two types at n = 16, every degree. Each list is measured on
// a fresh cache, on one whose memo MeasureStage filled every third
// candidate of, and with every row listed twice in a row (the second
// copy's stores find their slots filled, as a lost race does). Every
// latency MeasureRows returns and every StageMeasure it stores must
// equal eng.MeasureStage's bit for bit, every read must count once, as a
// hit or a miss, and the misses must be the slots it filled.
func TestMeasureRowsMatchEngine(t *testing.T) {
	workloads := []model.Workload{{Model: "GPT-1.3B", GlobalBatch: 128}, {Model: "WRes-1B", GlobalBatch: 256}}
	types := []string{"A40", "V100"}
	if testing.Short() {
		workloads, types = workloads[:1], types[:1]
	}
	const n = 16
	eng := exec.NewEngine(42)
	pl := planner.New()
	lists := 0
	for _, w := range workloads {
		g, err := model.BuildClustered(w.Model)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range types {
			spec := hw.MustLookup(typ)
			s, err := newSearcher(context.Background(), eng, g, spec, w.GlobalBatch, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, deg := range core.PipelineDegrees(n, len(g.Ops)) {
				numMicro := parallel.DefaultMicrobatches(deg)
				micro := float64(w.GlobalBatch) / float64(numMicro)
				check := func(kind string, jobs []parallel.StagePlan) {
					label := fmt.Sprintf("%s %s deg=%d %s", w, typ, deg, kind)
					want := make([]exec.StageMeasure, len(jobs))
					for i, st := range jobs {
						want[i] = eng.MeasureStage(g, st, spec, micro, spec.GPUsPerNode)
					}
					for _, prefill := range []int{0, 3} {
						checkRows(t, fmt.Sprintf("%s prefill=%d", label, prefill), eng, g, spec, micro, jobs, want, prefill)
					}
					doubled, wantDoubled := doubleRows(jobs, want)
					checkRows(t, label+" doubled rows", eng, g, spec, micro, doubled, wantDoubled, 0)
					lists++
				}
				check("full", slices.Clone(s.stageCandidates(deg, n, numMicro, nil)))
				gp, err := pl.PlanGrid(g, core.Grid{Workload: w, GPUType: typ, N: n, S: deg})
				if err != nil {
					t.Fatal(err)
				}
				if gp.Feasible {
					check("pruned", slices.Clone(s.stageCandidates(deg, n, numMicro, BuildRestriction(g, spec, gp.Frontier))))
				}
			}
			s.release()
		}
	}
	if lists == 0 {
		t.Fatal("no candidate list checked")
	}
}

// doubleRows lists every start row of jobs twice in a row, with the
// matching engine measurements.
func doubleRows(jobs []parallel.StagePlan, want []exec.StageMeasure) ([]parallel.StagePlan, []exec.StageMeasure) {
	var dj []parallel.StagePlan
	var dw []exec.StageMeasure
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].OpStart == jobs[lo].OpStart {
			hi++
		}
		for range 2 {
			dj = append(dj, jobs[lo:hi]...)
			dw = append(dw, want[lo:hi]...)
		}
		lo = hi
	}
	return dj, dw
}

// checkRows measures jobs through MeasureRows on a fresh cache, after
// MeasureStage has filled every prefill-th candidate (none when prefill
// is 0), and compares every latency and stored measurement with want.
func checkRows(t *testing.T, label string, eng *exec.Engine, g *model.Graph, spec hw.GPU, micro float64, jobs []parallel.StagePlan, want []exec.StageMeasure, prefill int) {
	t.Helper()
	c := evalcache.New(eng)
	sh := c.StageShard(g, spec, 0)
	filled := map[parallel.StagePlan]bool{}
	if prefill > 0 {
		for i := 0; i < len(jobs); i += prefill {
			c.MeasureStage(g, jobs[i], spec, micro, 0)
			filled[jobs[i]] = true
		}
	}
	fresh := 0
	for _, st := range jobs {
		if !filled[st] {
			filled[st] = true
			fresh++
		}
	}
	before := c.Stats()
	times := make([]float64, len(jobs))
	sh.MeasureRows(jobs, micro, times)
	after := c.Stats()
	hits, misses := after.StageHits-before.StageHits, after.StageMisses-before.StageMisses
	if hits+misses != len(jobs) || misses != fresh {
		t.Fatalf("%s: %d reads counted %d hits and %d misses, want %d misses", label, len(jobs), hits, misses, fresh)
	}
	for i, st := range jobs {
		if math.Float64bits(times[i]) != math.Float64bits(want[i].Time()) {
			t.Fatalf("%s: %+v latency %v, engine %v", label, st, times[i], want[i].Time())
		}
		if got := sh.Measure(st, micro); bitsOf(got) != bitsOf(want[i]) {
			t.Fatalf("%s: %+v stored %+v, engine %+v", label, st, got, want[i])
		}
	}
	if s := c.Stats(); s.StageMisses != after.StageMisses {
		t.Fatalf("%s: reading back the stored measurements missed %d times", label, s.StageMisses-after.StageMisses)
	}
}

// bitsOf returns the bit patterns of m's fields, so that measurements
// compare bit for bit.
func bitsOf(m exec.StageMeasure) [6]uint64 {
	return [6]uint64{
		math.Float64bits(m.FwdCompute), math.Float64bits(m.BwdCompute), math.Float64bits(m.TPComm),
		math.Float64bits(m.Straggler), math.Float64bits(m.GradSync), math.Float64bits(m.ParamBytes),
	}
}

// sortedQuantiles is latencyQuantiles as it was before it selected its
// ranks: sort every latency, then read the quantiles.
func sortedQuantiles(cands []stageCand, k int) []float64 {
	var times []float64
	for _, c := range cands {
		times = append(times, c.time)
	}
	sort.Float64s(times)
	if len(times) > k {
		for i := 0; i < k; i++ {
			times[i] = times[(len(times)-1)*i/(k-1)]
		}
		times = times[:k]
	}
	return slices.Compact(times)
}

// TestLatencyQuantilesMatchesSort compares latencyQuantiles' selection
// with sortedQuantiles on random lists of 1 to 5,000 latencies: distinct
// values, values drawn from a handful (heavy ties), and sorted,
// reversed and constant lists.
func TestLatencyQuantilesMatchesSort(t *testing.T) {
	r := rng.New(5)
	var dst []float64
	for trial := 0; trial < 600; trial++ {
		size := 1 + r.Intn(5000)
		if trial%3 == 0 {
			size = 1 + r.Intn(100)
		}
		distinct := []int{1, 2, 3, 7, 40, size}[r.Intn(6)]
		cands := make([]stageCand, size)
		for i := range cands {
			cands[i].time = r.Range(0.001, 1)
			if distinct < size {
				cands[i].time = float64(r.Intn(distinct)) * 0.25
			}
		}
		switch trial % 7 {
		case 1:
			slices.SortFunc(cands, func(a, b stageCand) int { return compareTime(a.time, b.time) })
		case 2:
			slices.SortFunc(cands, func(a, b stageCand) int { return compareTime(b.time, a.time) })
		}
		for _, k := range []int{24, 2, 5} {
			want := sortedQuantiles(slices.Clone(cands), k)
			dst = latencyQuantiles(dst[:0], cands, k)
			if !slices.Equal(dst, want) {
				t.Fatalf("trial %d (%d latencies, %d distinct, k=%d): %v, sort gives %v", trial, size, distinct, k, dst, want)
			}
		}
	}
}

func compareTime(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// BenchmarkLatencyQuantiles times the 24 bounds of one degree's
// candidate list; a cold perfdb build's lists average 578 candidates.
func BenchmarkLatencyQuantiles(b *testing.B) {
	for _, size := range []int{100, 600, 3000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			r := rng.New(3)
			cands := make([]stageCand, size)
			for i := range cands {
				cands[i].time = r.Range(0.001, 1)
			}
			var dst []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = latencyQuantiles(dst[:0], cands, 24)
			}
		})
	}
}
