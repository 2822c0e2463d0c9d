package experiments

import (
	"context"
	"errors"

	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:     "test",
		Title:  "a title",
		Header: []string{"col1", "longer-column"},
	}
	tbl.AddRow("a", "b")
	tbl.AddRow("longer-cell", "c")
	tbl.Note("note %d", 7)
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== test: a title ==", "col1", "longer-cell", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	env := NewEnv(42)
	reg := env.Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(reg))
	}
	seen := map[string]bool{}
	for _, ex := range reg {
		if ex.ID == "" || ex.Brief == "" || ex.Run == nil {
			t.Errorf("incomplete experiment %+v", ex)
		}
		if seen[ex.ID] {
			t.Errorf("duplicate experiment %s", ex.ID)
		}
		seen[ex.ID] = true
	}
	// Every paper figure of §5 must be present.
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := env.Lookup("fig15"); err != nil {
		t.Error(err)
	}
	if _, err := env.Lookup("nope"); err == nil {
		t.Error("unknown lookup should error")
	}
}

func TestFig6RunsAndShowsBalanceEffect(t *testing.T) {
	env := NewEnv(42)
	tbl, err := env.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
}

func TestFig14ProxyNearOptimal(t *testing.T) {
	env := NewEnv(42)
	tbl, err := env.Fig14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Each case's proxy/best column should be ≥ 80%.
	for _, row := range tbl.Rows {
		frac := row[4]
		if frac == "-" {
			t.Errorf("infeasible case %v", row)
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(frac, "%"), 64)
		if err != nil {
			t.Fatalf("bad fraction %q", frac)
		}
		if v < 80 {
			t.Errorf("proxy quality %s below 80%% in %v", frac, row)
		}
	}
}

func TestFig15QualityAndCostCut(t *testing.T) {
	env := NewEnv(42)
	tbl, err := env.Fig15(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Fatalf("too few rows: %d", len(tbl.Rows))
	}
}

func TestFig2OptimalPlansShift(t *testing.T) {
	env := NewEnv(42)
	tbl, err := env.Fig2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Panel (a) must contain at least two distinct optimal plans across
	// GPU counts (the dynamicity claim).
	plans := map[string]bool{}
	for _, row := range tbl.Rows {
		if row[0] == "a" {
			plans[row[4]] = true
		}
	}
	if len(plans) < 2 {
		t.Errorf("no plan dynamicity in panel (a): %v", plans)
	}
}

// TestRunCancelsMidFigure is the registry-migration guarantee: every
// experiment observes its context, so arena-bench's ^C aborts mid-figure —
// not only mid-DB-build — with ctx.Err() and no table.
func TestRunCancelsMidFigure(t *testing.T) {
	env := NewEnv(42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig2", "fig3", "fig11", "fig15"} {
		ex, err := env.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := ex.Run(ctx)
		if tbl != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want canceled run, got table=%v err=%v", id, tbl, err)
		}
	}
}

// TestEnvForwardsProgress covers the per-figure progress stream: the
// Env's serialized sink must deliver perfdb.build events from database
// builds and sim.round events from policy runs — what arena-bench -v
// prints.
func TestEnvForwardsProgress(t *testing.T) {
	env := NewEnv(42)
	var mu sync.Mutex
	steps := map[string]int{}
	env.Progress = func(ev core.Event) {
		mu.Lock()
		steps[ev.Step]++
		mu.Unlock()
	}

	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	db, err := perfdb.BuildCtx(context.Background(), env.eng, perfdb.Options{
		GPUTypes:  []string{"A40"},
		MaxN:      4,
		Workloads: []model.Workload{w},
		Progress:  env.progress(), // the sink Env.DB threads into builds
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: 3600, NumJobs: 6, Seed: 7,
		GPUTypes: []string{"A40"}, MaxGPUs: 4,
		Workloads: []model.Workload{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.runPolicies(context.Background(), hw.ClusterA(), jobs, db, 8, []sched.Policy{policy.NewFCFS()}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if steps["perfdb.build"] == 0 {
		t.Error("no perfdb.build progress events forwarded")
	}
	if steps["sim.round"] == 0 {
		t.Error("no sim.round progress events forwarded")
	}
}
