package arena_test

import (
	"context"
	"testing"

	arena "github.com/sjtu-epcc/arena"
)

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
