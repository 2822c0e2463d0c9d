package perfdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/store"
)

// This file persists the database through a content-addressed store, one
// object per *workload column* — everything Build computes for one
// workload across the request's (GPU types × counts). Column granularity
// is what makes invalidation partial: a request rebuilds exactly the
// missing columns and reuses every other one byte for byte.
//
// A column's key hashes everything its entries depend on: the column
// schema version, the engine fingerprint (seed + tunables), the
// workload's model-graph fingerprint and global batch, the full GPU-type
// list with each device's spec fingerprint, and MaxN. The type list and
// MaxN belong to the key because the build's offline communication table
// spans all requested types and counts. Content addressing also shares
// columns across option sets: two requests that agree on those inputs hit
// the same objects regardless of which other workloads each one asked for.

// columnSchema versions the column dump layout; hashed into every key, so
// a bump orphans old objects instead of misreading them.
const columnSchema = 1

// columnDomain is the store domain database columns persist under.
const columnDomain = "perfdb"

// columnDump is the serializable contribution of one workload to a
// database: its entries over (types × counts) plus its profiling wall
// times.
type columnDump struct {
	Seed        uint64   `json:"seed"`
	Model       string   `json:"model"`
	GlobalBatch int      `json:"globalBatch"`
	GPUTypes    []string `json:"gpuTypes"`
	MaxN        int      `json:"maxN"`

	Entries []colEntry `json:"entries"`

	ArenaWall float64 `json:"arenaProfileWall"`
	DPWall    float64 `json:"dpProfileWall"`
	SiaWall   float64 `json:"siaProfileWall"`
}

type colEntry struct {
	GPUType string `json:"gpuType"`
	N       int    `json:"n"`
	Entry   Entry  `json:"entry"`
}

// PersistError marks a column write failure that did not affect the
// built database: the build succeeded and the returned DB is fully
// usable; only the cross-run cache was lost. Callers distinguish it with
// errors.As to warn-and-continue instead of aborting.
type PersistError struct {
	Key string
	Err error
}

func (e *PersistError) Error() string {
	return fmt.Sprintf("perfdb: persisting column %s: %v", e.Key, e.Err)
}

func (e *PersistError) Unwrap() error { return e.Err }

// StoreStats reports how a BuildOrLoadStore request was served.
type StoreStats struct {
	// LoadedColumns / BuiltColumns count workload columns served from the
	// store vs searched from scratch.
	LoadedColumns, BuiltColumns int
	// Skipped collects typed per-object read failures (corrupt, truncated,
	// version-skewed); each skipped column was rebuilt, so the database is
	// complete regardless. Callers warn, never abort.
	Skipped []error
}

// FromStore reports whether every requested column came from the store.
func (s StoreStats) FromStore() bool { return s.BuiltColumns == 0 && s.LoadedColumns > 0 }

// columnKey derives the content address of one workload column.
func columnKey(engineFP string, w model.Workload, graphFP string, gpuTypes []string, gpuFPs []string, maxN int) store.Key {
	fields := []string{
		"v" + strconv.Itoa(columnSchema), engineFP,
		w.Model, graphFP, strconv.Itoa(w.GlobalBatch),
		strconv.Itoa(maxN),
	}
	for i, t := range gpuTypes {
		fields = append(fields, t, gpuFPs[i])
	}
	return store.NewKey(columnDomain, fields...)
}

// BuildOrLoadStore returns a database for the request, serving each
// workload column from the content-addressed store when present and
// building only the missing columns — so adding one workload to an
// otherwise-cached request profiles and searches that workload alone,
// while every pre-existing column is reused byte for byte. Freshly built
// columns are written back for the next run.
//
// The merged result is bit-identical to a cold Build of the same options:
// workload columns are independent by construction (each build runs its
// own planner and profiler over the same pure engine, and measurement
// caches — per-workload or shared via Options.EvalCache — only memoize
// that engine's pure results), which
// TestStorePartialBuildMatchesColdBuild asserts.
//
// A nil store builds without persistence. A column write failure returns
// the fully usable database together with a *PersistError; unreadable
// column objects are rebuilt and reported in StoreStats.Skipped.
func BuildOrLoadStore(ctx context.Context, eng *exec.Engine, opts Options, st *store.Store) (*DB, StoreStats, error) {
	var stats StoreStats
	if ctx == nil {
		ctx = context.Background()
	}
	if st == nil {
		db, err := BuildCtx(ctx, eng, opts)
		if db != nil {
			stats.BuiltColumns = len(opts.Workloads)
		}
		return db, stats, err
	}
	if len(opts.GPUTypes) == 0 {
		return nil, stats, fmt.Errorf("perfdb: no GPU types")
	}
	if opts.Seed != 0 && opts.Seed != eng.Seed() {
		return nil, stats, fmt.Errorf("perfdb: options seed %d does not match engine seed %d", opts.Seed, eng.Seed())
	}
	if opts.MaxN < 1 {
		opts.MaxN = 16
	}
	if len(opts.Workloads) == 0 {
		opts.Workloads = model.Workloads()
	}

	engineFP := evalcache.EngineFingerprint(eng)
	gpuFPs := make([]string, len(opts.GPUTypes))
	for i, t := range opts.GPUTypes {
		spec, err := hw.Lookup(t)
		if err != nil {
			return nil, stats, err
		}
		gpuFPs[i] = evalcache.GPUFingerprint(spec)
	}

	keys := make([]store.Key, len(opts.Workloads))
	for i, w := range opts.Workloads {
		g, err := model.BuildClustered(w.Model)
		if err != nil {
			return nil, stats, err
		}
		keys[i] = columnKey(engineFP, w, evalcache.GraphFingerprint(g), opts.GPUTypes, gpuFPs, opts.MaxN)
	}

	db := &DB{
		GPUTypes:         opts.GPUTypes,
		MaxN:             opts.MaxN,
		seed:             eng.Seed(),
		entries:          map[Key]*Entry{},
		arenaProfileWall: map[model.Workload]float64{},
		dpProfileWall:    map[model.Workload]float64{},
		siaProfileWall:   map[model.Workload]float64{},
		observed:         map[Key]float64{},
	}

	var missing []model.Workload
	var missingKeys []store.Key
	for i, w := range opts.Workloads {
		var col columnDump
		err := st.Get(columnDomain, keys[i], &col)
		switch {
		case err == nil && col.Seed == eng.Seed() && col.Model == w.Model && col.GlobalBatch == w.GlobalBatch:
			db.importColumn(w, &col)
			stats.LoadedColumns++
			continue
		case err == nil:
			// The object passed the store's integrity checks but declares a
			// different identity than its key implies — treat as corrupt.
			stats.Skipped = append(stats.Skipped, &store.Error{
				Op: "get", Path: string(keys[i]),
				Err: fmt.Errorf("%w: column identity %s@%d/seed %d does not match request",
					store.ErrCorrupt, col.Model, col.GlobalBatch, col.Seed),
			})
		case !isNotFound(err):
			stats.Skipped = append(stats.Skipped, err)
		}
		missing = append(missing, w)
		missingKeys = append(missingKeys, keys[i])
	}

	if len(missing) > 0 {
		buildOpts := opts
		buildOpts.Workloads = missing
		built, err := BuildCtx(ctx, eng, buildOpts)
		if err != nil {
			return nil, stats, err
		}
		stats.BuiltColumns = len(missing)
		var saveErr error
		for i, w := range missing {
			col := built.exportColumn(w)
			db.importColumn(w, col)
			if err := st.Put(columnDomain, missingKeys[i], col); err != nil && saveErr == nil {
				saveErr = &PersistError{Key: string(missingKeys[i]), Err: err}
			}
		}
		if saveErr != nil {
			return db, stats, saveErr
		}
	}
	return db, stats, nil
}

// isNotFound distinguishes the ordinary cache miss from real read failures.
func isNotFound(err error) bool {
	return errors.Is(err, store.ErrNotFound)
}

// exportColumn snapshots one workload's contribution in deterministic
// order.
func (db *DB) exportColumn(w model.Workload) *columnDump {
	col := &columnDump{
		Seed: db.seed, Model: w.Model, GlobalBatch: w.GlobalBatch,
		GPUTypes: db.GPUTypes, MaxN: db.MaxN,
		ArenaWall: db.arenaProfileWall[w],
		DPWall:    db.dpProfileWall[w],
		SiaWall:   db.siaProfileWall[w],
	}
	for k, e := range db.entries {
		if k.Workload == w {
			col.Entries = append(col.Entries, colEntry{GPUType: k.GPUType, N: k.N, Entry: *e})
		}
	}
	sort.Slice(col.Entries, func(i, j int) bool {
		a, b := col.Entries[i], col.Entries[j]
		if a.GPUType != b.GPUType {
			return a.GPUType < b.GPUType
		}
		return a.N < b.N
	})
	return col
}

// importColumn merges one column into the database.
func (db *DB) importColumn(w model.Workload, col *columnDump) {
	for _, ce := range col.Entries {
		e := ce.Entry
		db.entries[Key{Workload: w, GPUType: ce.GPUType, N: ce.N}] = &e
	}
	db.arenaProfileWall[w] = col.ArenaWall
	db.dpProfileWall[w] = col.DPWall
	db.siaProfileWall[w] = col.SiaWall
}
