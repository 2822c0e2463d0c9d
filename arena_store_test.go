package arena_test

import (
	"context"
	"reflect"
	"testing"

	arena "github.com/sjtu-epcc/arena"
)

// TestSessionStorePersistsMeasurements is the cross-process reuse
// guarantee behind `arena-plan -store dir` run twice: a second session
// opening the same store performs the same work without a single cold
// stage measurement, and the results are bit-identical.
func TestSessionStorePersistsMeasurements(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}

	run := func(t *testing.T) (arena.SearchOutcome, *arena.Session) {
		t.Helper()
		sess, err := arena.New(
			arena.WithSeed(42),
			arena.WithGPUTypes("A40"),
			arena.WithMaxN(4),
			arena.WithWorkloads(w),
			arena.WithStore(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		g := arena.MustBuildModel(w.Model)
		out, err := sess.FullSearch(ctx, g, "A40", w.GlobalBatch, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		return out, sess
	}

	cold, s1 := run(t)
	if st := s1.EvalCache().Stats(); st.StageMisses == 0 {
		t.Fatal("first run should measure stages cold")
	}
	if st := s1.EvalStoreStats(); st.Shards != 0 {
		t.Fatalf("first run should start from an empty store, got %+v", st)
	}

	warm, s2 := run(t)
	if st := s2.EvalStoreStats(); st.Stages == 0 || st.Ops == 0 {
		t.Fatalf("second run restored nothing: %+v", st)
	}
	if len(s2.EvalStoreStats().Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", s2.EvalStoreStats().Skipped)
	}
	if st := s2.EvalCache().Stats(); st.StageMisses != 0 {
		t.Fatalf("second run re-measured %d stages (want 0: cold profiling skipped)", st.StageMisses)
	}
	if cold.Plan.Degrees() != warm.Plan.Degrees() || !reflect.DeepEqual(cold.Result, warm.Result) {
		t.Fatalf("store-served search diverged: %+v vs %+v", warm, cold)
	}
}

// TestSessionStoreServesPerfDB verifies BuildPerfDB through the store:
// second session's database is served entirely from columns and matches
// the first build's entries.
func TestSessionStoreServesPerfDB(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	newSess := func() *arena.Session {
		return arena.MustNew(
			arena.WithSeed(42),
			arena.WithGPUTypes("A40"),
			arena.WithMaxN(4),
			arena.WithWorkloads(w),
			arena.WithStore(dir),
		)
	}

	s1 := newSess()
	db1, err := s1.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.PerfDBStoreStats(); st.FromStore() || st.BuiltColumns != 1 {
		t.Fatalf("first build stats: %+v", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newSess()
	db2, err := s2.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.PerfDBStoreStats(); !st.FromStore() || st.LoadedColumns != 1 {
		t.Fatalf("second build stats: %+v", st)
	}
	k1, k2 := db1.Keys(), db2.Keys()
	if len(k1) == 0 || len(k1) != len(k2) {
		t.Fatalf("key sets differ: %d vs %d", len(k1), len(k2))
	}
	for i, k := range k1 {
		if k != k2[i] {
			t.Fatalf("key %d differs: %+v vs %+v", i, k, k2[i])
		}
		e1, _ := db1.Entry(k.Workload, k.GPUType, k.N)
		e2, _ := db2.Entry(k.Workload, k.GPUType, k.N)
		if *e1 != *e2 {
			t.Fatalf("entry %+v differs:\n first %+v\n store %+v", k, *e1, *e2)
		}
	}
}

// TestSessionFirstPerfDBBuildReusesStoredMeasurements closes the
// ROADMAP's last store gap: a session whose earlier searches persisted
// op/stage measurements hands its store-hydrated eval cache to the
// *first* performance-database build, so even a cold database (no
// persisted columns yet) starts from warm measurements instead of
// profiling every workload column from scratch — and stays
// bit-identical to a storeless build.
func TestSessionFirstPerfDBBuildReusesStoredMeasurements(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	opts := func(extra ...arena.Option) []arena.Option {
		return append([]arena.Option{
			arena.WithSeed(42),
			arena.WithGPUTypes("A40"),
			arena.WithMaxN(4),
			arena.WithWorkloads(w),
		}, extra...)
	}

	// Session 1: search only — persists measurements but never builds a
	// database, so no perfdb column objects exist afterwards.
	s1, err := arena.New(opts(arena.WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	g := arena.MustBuildModel(w.Model)
	if _, err := s1.FullSearch(ctx, g, "A40", w.GlobalBatch, 4); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: its first database build must hydrate the persisted
	// measurement contexts through the shared eval cache.
	s2, err := arena.New(opts(arena.WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	db, err := s2.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.EvalStoreStats()
	if stats.Ops == 0 && stats.Stages == 0 {
		t.Fatalf("first build restored no measurements from the store: %+v", stats)
	}
	if len(stats.Skipped) > 0 {
		t.Fatalf("store restore skipped objects: %v", stats.Skipped)
	}
	if colStats := s2.PerfDBStoreStats(); colStats.LoadedColumns != 0 || colStats.BuiltColumns == 0 {
		t.Fatalf("expected a cold column build, got %+v", colStats)
	}

	// Reuse must not change a single bit vs a storeless session.
	ref, err := arena.New(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	refDB, err := ref.BuildPerfDB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Keys(), refDB.Keys()) {
		t.Fatal("key sets diverged between store-warmed and cold builds")
	}
	for _, k := range refDB.Keys() {
		a, _ := db.Entry(k.Workload, k.GPUType, k.N)
		b, _ := refDB.Entry(k.Workload, k.GPUType, k.N)
		if !reflect.DeepEqual(*a, *b) {
			t.Fatalf("entry %v diverged between store-warmed and cold builds", k)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
