package sim

import (
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/sched/schedtest"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// TestKeptStateInvisible runs every golden configuration of an Arena,
// Sia or ElasticFlow policy beside a twin that drops its kept state —
// the round buffers it reuses, and Arena's ladders and launch FIFOs —
// before every Assign (schedtest.MatchDropped): every round must decide
// the same, and the kept policy's results must still match the golden
// digests.
func TestKeptStateInvisible(t *testing.T) {
	runs := matchGoldens(t, func(p sched.Policy) sched.Policy {
		var shadow sched.Policy
		switch p := p.(type) {
		case *sched.ArenaPolicy:
			c := *p
			shadow = &c
		case *policy.Sia:
			c := *p
			shadow = &c
		case *policy.ElasticFlow:
			c := *p
			shadow = &c
		default:
			return nil
		}
		return schedtest.MatchDropped(t, p, shadow)
	})
	for _, name := range []string{"arena", "sia", "elasticflow-ls"} {
		if runs[name] == 0 {
			t.Errorf("no golden configuration runs %s", name)
		}
	}
}

// allocsPerJobBound caps the heap allocations per job of lightRun. It
// measured 4.73 under Go 1.24's maps and 4.61 under the former map
// implementation (GOEXPERIMENT=noswissmap), whose growth steps differ;
// before the policies and the engine kept their round buffers it was
// 8.10. About four are the job's own: its sched.Job, its ID, its
// simulation record and its cluster blocks. A change that allocates per
// round or per job again shows here on any host, where a wall-clock gate
// cannot see it; one that raises the bound says why.
const allocsPerJobBound = 4.8

// TestAllocsPerJob bounds the heap allocations per job of lightRun.
func TestAllocsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count skipped in -short mode")
	}
	database := db(t)
	jobs := 0
	allocs := testing.AllocsPerRun(1, func() {
		jobs = lightRun(t, database)
	})
	if perJob := allocs / float64(jobs); perJob > allocsPerJobBound {
		t.Errorf("%.0f allocations over %d jobs: %.2f per job, bound %.1f", allocs, jobs, perJob, allocsPerJobBound)
	}
}

// lightRun is sim-helios-light's shape cut to one day: a streamed Helios
// day of 5,000 jobs on 128 A40 and 128 A10 nodes under the Arena policy,
// in streaming-summary mode. It returns the jobs of the run.
func lightRun(t *testing.T, database *perfdb.DB) int {
	cfg := trace.HeliosDay(7, []string{"A40", "A10"}, 5000)
	cfg.Workloads = []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-1.3B", GlobalBatch: 128},
		{Model: "GPT-2.6B", GlobalBatch: 128},
	}
	src, err := trace.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec: hw.ClusterSpec{Name: "light", Regions: []hw.Region{
			{GPUType: "A40", Nodes: 128}, {GPUType: "A10", Nodes: 128},
		}},
		Policy: sched.NewArena(), Source: src, DB: database, RoundSeconds: 300,
		Streaming: true, IncludeUnfinished: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Total
}
