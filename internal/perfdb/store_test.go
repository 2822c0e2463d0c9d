package perfdb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/store"
)

var storeTestWorkloads = []model.Workload{
	{Model: "GPT-1.3B", GlobalBatch: 128},
	{Model: "WRes-1B", GlobalBatch: 256},
}

func storeTestOpts(ws ...model.Workload) Options {
	return Options{GPUTypes: []string{"A40"}, MaxN: 8, Workloads: ws}
}

// equalDBExact asserts two databases are bit-identical in every
// serialized dimension (entries, wall times, metadata).
func equalDBExact(t *testing.T, got, want *DB) {
	t.Helper()
	if got.seed != want.seed || got.MaxN != want.MaxN || !reflect.DeepEqual(got.GPUTypes, want.GPUTypes) {
		t.Fatalf("metadata mismatch: %v/%d/%d vs %v/%d/%d",
			got.GPUTypes, got.MaxN, got.seed, want.GPUTypes, want.MaxN, want.seed)
	}
	if len(got.entries) != len(want.entries) {
		t.Fatalf("entry count %d vs %d", len(got.entries), len(want.entries))
	}
	for k, we := range want.entries {
		ge, ok := got.entries[k]
		if !ok {
			t.Fatalf("missing entry %+v", k)
		}
		if *ge != *we {
			t.Fatalf("entry %+v differs:\n got %+v\nwant %+v", k, *ge, *we)
		}
	}
	for _, m := range []struct {
		name      string
		got, want map[model.Workload]float64
	}{
		{"arenaWall", got.arenaProfileWall, want.arenaProfileWall},
		{"dpWall", got.dpProfileWall, want.dpProfileWall},
		{"siaWall", got.siaProfileWall, want.siaProfileWall},
	} {
		if !reflect.DeepEqual(m.got, m.want) {
			t.Fatalf("%s differs: %v vs %v", m.name, m.got, m.want)
		}
	}
}

// TestStorePartialBuildMatchesColdBuild is the partial-invalidation
// determinism proof: build workload A alone (persisting its column), then
// request {A, B} through the store — only B's column is built, A's is
// reused from disk — and the merged database must be bit-identical to a
// cold full build of {A, B}.
func TestStorePartialBuildMatchesColdBuild(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads[0]), st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BuiltColumns != 1 || stats.LoadedColumns != 0 {
		t.Fatalf("first build: %+v", stats)
	}
	if len(first.Keys()) == 0 {
		t.Fatal("first build produced no entries")
	}

	merged, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads...), st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoadedColumns != 1 || stats.BuiltColumns != 1 {
		t.Fatalf("partial build should load 1 and build 1 column, got %+v", stats)
	}

	cold, err := Build(exec.NewEngine(42), storeTestOpts(storeTestWorkloads...))
	if err != nil {
		t.Fatal(err)
	}
	equalDBExact(t, merged, cold)

	// A third run is a full store hit.
	warm, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads...), st)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromStore() || stats.LoadedColumns != 2 {
		t.Fatalf("warm run should serve both columns from the store, got %+v", stats)
	}
	equalDBExact(t, warm, cold)
}

// TestStoreColumnSharedAcrossWorkloadSets verifies content addressing
// shares columns between different request mixes: a request for {A} hits
// the column a {A, B} build wrote.
func TestStoreColumnSharedAcrossWorkloadSets(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads...), st); err != nil {
		t.Fatal(err)
	}
	_, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads[1]), st)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromStore() {
		t.Fatalf("subset request should be served from the store, got %+v", stats)
	}
}

// TestStoreSeedInvalidation verifies a different seed misses every column
// (the engine fingerprint is part of the key).
func TestStoreSeedInvalidation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := storeTestOpts(storeTestWorkloads[0])
	if _, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st); err != nil {
		t.Fatal(err)
	}
	_, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(7), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoadedColumns != 0 || stats.BuiltColumns != 1 {
		t.Fatalf("other seed must rebuild, got %+v", stats)
	}
}

// TestStoreCorruptColumnRebuilds verifies the corruption path: a truncated
// column object is skipped with a typed error and transparently rebuilt,
// and the result still matches a cold build.
func TestStoreCorruptColumnRebuilds(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := storeTestOpts(storeTestWorkloads[0])
	if _, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "perfdb"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, "perfdb", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BuiltColumns != 1 || len(stats.Skipped) != 1 {
		t.Fatalf("corrupt column should rebuild with one skip, got %+v", stats)
	}
	if !errors.Is(stats.Skipped[0], store.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", stats.Skipped[0])
	}
	cold, err := Build(exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	equalDBExact(t, db, cold)

	// The rebuild re-persisted the column: next run hits.
	_, stats, err = BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromStore() {
		t.Fatalf("repaired store should hit, got %+v", stats)
	}
}

// TestBuildOrLoadKeepsDBWhenSaveFails: a failed column write must not
// discard the expensive build. A regular file squatting on the perfdb
// domain directory makes every column read and write fail.
func TestBuildOrLoadKeepsDBWhenSaveFails(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, columnDomain), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts(storeTestWorkloads[0])
	db, stats, err := BuildOrLoadStore(context.Background(), exec.NewEngine(42), opts, st)
	var perr *PersistError
	if !errors.As(err, &perr) {
		t.Fatalf("want a *PersistError, got %v", err)
	}
	if stats.BuiltColumns != 1 || db == nil {
		t.Fatalf("built database was discarded over a persistence failure: db=%v stats=%+v", db, stats)
	}
	cold, err := Build(exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	equalDBExact(t, db, cold)
}

// TestStoreCancellation verifies a cancelled context aborts the build
// phase with ctx.Err() and no database.
func TestStoreCancellation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), storeTestOpts(storeTestWorkloads[0]), st)
	if db != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled build, got db=%v err=%v", db, err)
	}
}
