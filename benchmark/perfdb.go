package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
)

// coldTypes are the GPU types of the cold build: every model on four
// generations of GPU, the scheduler not involved at all.
var coldTypes = []string{"A100", "A40", "A10", "V100"}

// coldWorkloads is every model once, at the first of its batch sizes in
// model.Workloads() order: all three families and every size, at a third
// of the cost of every batch size.
func coldWorkloads() []model.Workload {
	var ws []model.Workload
	for _, w := range model.Workloads() {
		if len(ws) == 0 || ws[len(ws)-1].Model != w.Model {
			ws = append(ws, w)
		}
	}
	return ws
}

// perfdbCold builds the performance database from nothing, serially and
// repeatedly. Its set-up is building every model graph. The engine seed
// is the workload seed.
func perfdbCold(ctx context.Context, c config) (*result, error) {
	all := coldWorkloads()
	spec := dbSpec{
		seed: c.seed, types: coldTypes, maxN: 16,
		workloads: all[:max(1, int(float64(len(all))*c.scale))],
	}
	res := &result{}
	if err := measure(c.seconds/10, func() error {
		s, err := timed(func() error { return buildGraphs(spec.workloads) })
		res.setup = append(res.setup, s)
		return err
	}); err != nil {
		return nil, err
	}

	var want map[perfdb.Key]perfdb.Entry
	err := res.runPasses(c.seconds, func(int) (float64, error) {
		var db *perfdb.DB
		points := pointTimer{last: map[string]time.Time{}}
		wall, err := timed(func() (err error) {
			db, err = spec.build(ctx, points.event)
			return err
		})
		res.attempted++
		if err != nil {
			return 0, err
		}
		res.ops.add(points.ms)
		if want == nil {
			want = entriesOf(db)
		} else {
			n := differing(want, entriesOf(db))
			res.check(n == 0, "build %d: %d entries differ from build 0's", len(res.passes), n)
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	points := len(spec.workloads) * len(spec.types) * len(core.GPUCounts(spec.maxN))
	res.check(len(want) == points, "perfdb has %d entries, want %d", len(want), points)
	res.info = []metric{
		{"build_s", median(res.passes), "s"},
		{"points", float64(points), "count"},
	}
	if !c.trace {
		return res, nil
	}

	res.refPass = res.passes[0]
	res.rec = newRecorder()
	res.tracedPass, err = timed(func() error { return traceReplay(ctx, spec, want, res, "pass") })
	return res, err
}

// buildGraphs builds every distinct model graph of the workloads.
func buildGraphs(ws []model.Workload) error {
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Model] {
			continue
		}
		seen[w.Model] = true
		if _, err := model.BuildClustered(w.Model); err != nil {
			return err
		}
	}
	return nil
}

// pointTimer turns perfdb.Build's progress events into per-point
// latencies. A workload's points complete one after another, so the gap
// between two completions of one workload is the later point's time.
// The first point of each workload also carries its profiling and has
// no earlier completion to measure from; it is left out. Workers call
// event concurrently.
type pointTimer struct {
	mu   sync.Mutex
	last map[string]time.Time
	ms   []float64
}

func (t *pointTimer) event(e core.Event) {
	now := time.Now()
	w, _, _ := strings.Cut(e.Item, "/")
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.last[w]; ok {
		t.ms = append(t.ms, ms(now.Sub(prev)))
	}
	t.last[w] = now
}
