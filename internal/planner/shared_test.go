package planner

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/model"
)

// The Planner keeps each job's intra-stage tables across the grids it
// plans (planner.go, intra.go). These tests prove the sharing invisible:
// whatever order or concurrency the grids arrive in, every GridPlan is
// deep-equal to a fresh Planner's, and a job computes each selection
// once.

// sharedCase is one grid with the graph every plan of its model uses:
// the tables are keyed by graph pointer, so one graph per model is what
// lets grids share them.
type sharedCase struct {
	g    *model.Graph
	grid core.Grid
}

// buildOrderMatrix is dpTestMatrix in the build's order (types outer,
// then N, then S), each model on one graph: every job once, its grids
// contiguous.
func buildOrderMatrix(graph func(string) *model.Graph) []sharedCase {
	var cases []sharedCase
	for _, grid := range dpTestMatrix() {
		cases = append(cases, sharedCase{graph(grid.Workload.Model), grid})
	}
	return cases
}

// graphCache returns one graph per model name.
func graphCache() func(string) *model.Graph {
	graphs := map[string]*model.Graph{}
	return func(name string) *model.Graph {
		if graphs[name] == nil {
			graphs[name] = model.MustBuildClustered(name)
		}
		return graphs[name]
	}
}

// sharedMatrix is buildOrderMatrix followed by a GPT-1.3B job at two
// global batches on the same graph and types, interleaved type by type,
// so a table keyed without the batch would serve the wrong job.
func sharedMatrix() []sharedCase {
	graph := graphCache()
	cases := buildOrderMatrix(graph)
	for _, typ := range []string{"A40", "A10"} {
		for _, gb := range []int{128, 512} {
			w := model.Workload{Model: "GPT-1.3B", GlobalBatch: gb}
			g := graph(w.Model)
			for _, grid := range core.Enumerate(w, len(g.Ops), []string{typ}, 16) {
				cases = append(cases, sharedCase{g, grid})
			}
		}
	}
	return cases
}

// freshPlans plans every case on its own new Planner.
func freshPlans(t *testing.T, cases []sharedCase) []*GridPlan {
	t.Helper()
	out := make([]*GridPlan, len(cases))
	for i, c := range cases {
		gp, err := New().PlanGrid(c.g, c.grid)
		if err != nil {
			t.Fatalf("%v: %v", c.grid, err)
		}
		out[i] = gp
	}
	return out
}

// TestSharedTablesMatchFresh plans the matrix through one Planner in
// the build's order, in reverse N order, and from four goroutines at
// once (run it under -race): every GridPlan must deep-equal a fresh
// Planner's.
func TestSharedTablesMatchFresh(t *testing.T) {
	cases := sharedMatrix()
	want := freshPlans(t, cases)
	check := func(t *testing.T, pl *Planner, i int) {
		got, err := pl.PlanGrid(cases[i].g, cases[i].grid)
		if err != nil {
			t.Errorf("%v: %v", cases[i].grid, err)
			return
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%v: GridPlan through a shared Planner differs from a fresh Planner's", cases[i].grid)
		}
	}

	t.Run("build-order", func(t *testing.T) {
		pl := New()
		for i := range cases {
			check(t, pl, i)
		}
	})

	t.Run("reverse-N", func(t *testing.T) {
		// Each job's grids from N = 16 down, so every table is first
		// built at its largest N and then serves the smaller ones.
		order := make([]int, len(cases))
		for i := range order {
			order[i] = i
		}
		job := func(i int) selectorKey { return jobOf(cases[i]) }
		first := map[selectorKey]int{}
		for i := range cases {
			if _, ok := first[job(i)]; !ok {
				first[job(i)] = i
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			ja, jb := first[job(order[a])], first[job(order[b])]
			if ja != jb {
				return ja < jb
			}
			return cases[order[a]].grid.N > cases[order[b]].grid.N
		})
		pl := New()
		for _, i := range order {
			check(t, pl, i)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Four goroutines sweep the matrix from different offsets, so
		// they meet on the same job, take each other's tables and switch
		// the Planner between jobs under each other's feet.
		pl := New()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range cases {
					check(t, pl, (k+w*len(cases)/8)%len(cases))
				}
			}(w)
		}
		wg.Wait()
	})
}

// jobOf is the job a case's idle tables belong to.
func jobOf(c sharedCase) selectorKey {
	return selectorKey{graph: c.g, gpuType: c.grid.GPUType, batch: c.grid.Workload.GlobalBatch}
}

// TestSelectionsComputedOnce pins the saving: planning a job's grids
// through one Planner computes each (GPU type, S, operator range, GPU
// count) selection exactly once — the size of the union of the
// selections fresh Planners compute grid by grid.
func TestSelectionsComputedOnce(t *testing.T) {
	cases := buildOrderMatrix(graphCache())
	shared := New()
	type entry struct {
		job      selectorKey
		s, lg, r int
	}
	distinct := map[entry]bool{}
	perGrid := 0
	for _, c := range cases {
		if _, err := shared.PlanGrid(c.g, c.grid); err != nil {
			t.Fatal(err)
		}
		fresh := New()
		if _, err := fresh.PlanGrid(c.g, c.grid); err != nil {
			t.Fatal(err)
		}
		perGrid += fresh.selections
		for lg, plane := range fresh.idle[c.grid.S].planes {
			for r, e := range plane {
				if e.tp != 0 {
					distinct[entry{jobOf(c), c.grid.S, lg, r}] = true
				}
			}
		}
	}
	if shared.selections != len(distinct) {
		t.Errorf("a shared Planner computed %d selections, want the %d distinct ones", shared.selections, len(distinct))
	}
	if perGrid <= shared.selections {
		t.Errorf("grid by grid %d selections, shared %d: the matrix no longer shows any sharing", perGrid, shared.selections)
	}
	t.Logf("selections: %d grid by grid, %d shared (%.2fx)", perGrid, shared.selections, float64(perGrid)/float64(shared.selections))
}
