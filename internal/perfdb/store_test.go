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
	if len(got.cols) != len(want.cols) {
		t.Fatalf("column count %d vs %d", len(got.cols), len(want.cols))
	}
	for w, wc := range want.cols {
		gc, ok := got.cols[w]
		if !ok {
			t.Fatalf("missing column %v", w)
		}
		if !reflect.DeepEqual(gc.entries, wc.entries) {
			t.Fatalf("column %v entries differ:\n got %+v\nwant %+v", w, gc.entries, wc.entries)
		}
		if gc.arenaWall != wc.arenaWall || gc.dpWall != wc.dpWall || gc.siaWall != wc.siaWall {
			t.Fatalf("column %v wall times differ: %v/%v/%v vs %v/%v/%v", w,
				gc.arenaWall, gc.dpWall, gc.siaWall, wc.arenaWall, wc.dpWall, wc.siaWall)
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

	cold, err := BuildCtx(context.Background(), exec.NewEngine(42), storeTestOpts(storeTestWorkloads...))
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
	cold, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
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
	cold, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
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

// columnTestOpts spans two GPU types listed out of name order, so a
// column's slot order (types as listed) differs from Keys' order (types
// by name).
func columnTestOpts() Options {
	return Options{GPUTypes: []string{"A40", "A10"}, MaxN: 4, Workloads: storeTestWorkloads}
}

// TestColumnsAnswerExactlyTheirKeys pins the dense column layout: a
// built database and the same database loaded back from the store answer
// Entry for exactly the points Keys lists — every listed GPU type at
// every power of two up to MaxN, for every workload — with equal
// entries, and return (nil, false) everywhere else: n = 0, 3 or 2·MaxN,
// an unknown type, an unknown workload.
func TestColumnsAnswerExactlyTheirKeys(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := columnTestOpts()
	built, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromStore() {
		t.Fatalf("second request should load every column, got %+v", stats)
	}

	var want []Key
	for _, w := range []model.Workload{storeTestWorkloads[0], storeTestWorkloads[1]} {
		for _, typ := range []string{"A10", "A40"} {
			for n := 1; n <= opts.MaxN; n *= 2 {
				want = append(want, Key{Workload: w, GPUType: typ, N: n})
			}
		}
	}
	probeWorkloads := append([]model.Workload{{Model: "GPT-1.3B", GlobalBatch: 64}}, storeTestWorkloads...)
	probeTypes := []string{"A40", "A10", "V100", ""}
	for name, d := range map[string]*DB{"built": built, "loaded": loaded} {
		if got := d.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Keys() = %v, want %v", name, got, want)
		}
		listed := map[Key]bool{}
		for _, k := range want {
			listed[k] = true
		}
		for _, w := range probeWorkloads {
			for _, typ := range probeTypes {
				for n := -1; n <= 2*opts.MaxN+1; n++ {
					k := Key{Workload: w, GPUType: typ, N: n}
					e, ok := d.Entry(w, typ, n)
					if ok != listed[k] || (e != nil) != ok {
						t.Fatalf("%s: Entry(%v) = (%v, %v), listed %v", name, k, e, ok, listed[k])
					}
					if !ok {
						continue
					}
					ref, _ := built.Entry(w, typ, n)
					if *e != *ref {
						t.Fatalf("%s: Entry(%v) = %+v, built %+v", name, k, *e, *ref)
					}
				}
			}
		}
	}
}

// TestStoreOffGridColumnRebuilds stores, through the store API, columns
// that pass the store's integrity checks but do not fit the request's
// grid — an off-grid count, a count past MaxN, an unknown type, a point
// listed twice or missing, another type list or MaxN — and requires each
// to be skipped with ErrCorrupt and rebuilt into a database equal to a
// cold build, while the intact column is still served from the store.
func TestStoreOffGridColumnRebuilds(t *testing.T) {
	opts := columnTestOpts()
	cold, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := columnKeys(exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(col *columnDump)
	}{
		{"n=3", func(col *columnDump) { col.Entries[1].N = 3 }},
		{"n=2*MaxN", func(col *columnDump) { col.Entries[2].N = 2 * opts.MaxN }},
		{"n=0", func(col *columnDump) { col.Entries[0].N = 0 }},
		{"unknown type", func(col *columnDump) { col.Entries[3].GPUType = "V100" }},
		{"duplicate point", func(col *columnDump) { col.Entries[1] = col.Entries[0] }},
		{"missing point", func(col *columnDump) { col.Entries = col.Entries[1:] }},
		{"extra point", func(col *columnDump) {
			col.Entries = append(col.Entries, colEntry{GPUType: "A40", N: 8, Entry: col.Entries[0].Entry})
		}},
		{"type list", func(col *columnDump) { col.GPUTypes = []string{"A40"} }},
		{"MaxN", func(col *columnDump) { col.MaxN = 8 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx := context.Background()
			if _, _, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st); err != nil {
				t.Fatal(err)
			}
			var col columnDump
			if err := st.Get(columnDomain, keys[0], &col); err != nil {
				t.Fatal(err)
			}
			c.corrupt(&col)
			if err := st.Put(columnDomain, keys[0], &col); err != nil {
				t.Fatal(err)
			}

			db, stats, err := BuildOrLoadStore(ctx, exec.NewEngine(42), opts, st)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BuiltColumns != 1 || stats.LoadedColumns != 1 || len(stats.Skipped) != 1 {
				t.Fatalf("off-grid column should be skipped and rebuilt alone, got %+v", stats)
			}
			if !errors.Is(stats.Skipped[0], store.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", stats.Skipped[0])
			}
			equalDBExact(t, db, cold)
		})
	}
}
