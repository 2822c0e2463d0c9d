package perfdb

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

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
// schema version, the engine fingerprint (seed + engine constants), the
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

// graphFingerprint condenses a model graph's static definition — name,
// family, sequence length, activation factor and every operator quantity —
// via its canonical JSON encoding.
func graphFingerprint(g *model.Graph) string { return jsonFingerprint(g) }

// gpuFingerprint condenses a device specification.
func gpuFingerprint(spec hw.GPU) string { return jsonFingerprint(spec) }

// jsonFingerprint hashes a value's canonical JSON encoding. Go marshals
// struct fields in declaration order, so the encoding — and the
// fingerprint — is deterministic for a fixed schema.
func jsonFingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Fingerprinted types are plain data structs; marshal cannot fail.
		panic(fmt.Sprintf("perfdb: fingerprint %T: %v", v, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:32]
}

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

// columnKeys derives the content address of every requested workload
// column (opts already defaulted).
func columnKeys(eng *exec.Engine, opts Options) ([]store.Key, error) {
	engineFP := eng.Fingerprint()
	gpuFPs := make([]string, len(opts.GPUTypes))
	for i, t := range opts.GPUTypes {
		spec, err := hw.Lookup(t)
		if err != nil {
			return nil, err
		}
		gpuFPs[i] = gpuFingerprint(spec)
	}
	keys := make([]store.Key, len(opts.Workloads))
	for i, w := range opts.Workloads {
		g, err := model.BuildClustered(w.Model)
		if err != nil {
			return nil, err
		}
		keys[i] = columnKey(engineFP, w, graphFingerprint(g), opts.GPUTypes, gpuFPs, opts.MaxN)
	}
	return keys, nil
}

// BuildOrLoadStore returns a database for the request, serving each
// workload column from the content-addressed store when present and
// building only the missing columns — so adding one workload to an
// otherwise-cached request profiles and searches that workload alone,
// while every pre-existing column is reused byte for byte. Freshly built
// columns are written back for the next run.
//
// The merged result is bit-identical to a cold Build of the same options:
// workload columns are independent by construction (each runs its own
// planner and profiler, and its cache memoizes the same pure engine),
// which TestStorePartialBuildMatchesColdBuild asserts.
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
	if opts.MaxN < 1 {
		opts.MaxN = 16
	}
	if len(opts.Workloads) == 0 {
		opts.Workloads = model.Workloads()
	}

	keys, err := columnKeys(eng, opts)
	if err != nil {
		return nil, stats, err
	}
	db := newDB(opts, eng.Seed())

	var missing []model.Workload
	var missingKeys []store.Key
	for i, w := range opts.Workloads {
		var col columnDump
		err := st.Get(columnDomain, keys[i], &col)
		if err == nil {
			ierr := db.importColumn(w, &col)
			if ierr == nil {
				stats.LoadedColumns++
				continue
			}
			// The object passed the store's integrity checks but does not
			// hold what its key implies — treat as corrupt.
			err = &store.Error{Op: "get", Path: string(keys[i]), Err: fmt.Errorf("%w: %v", store.ErrCorrupt, ierr)}
		}
		if !isNotFound(err) {
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
			db.cols[w] = built.cols[w]
			if err := st.Put(columnDomain, missingKeys[i], built.exportColumn(w)); err != nil && saveErr == nil {
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

// exportColumn snapshots one workload's column, its entries ordered by
// (GPU type name, count).
func (db *DB) exportColumn(w model.Workload) *columnDump {
	c := db.cols[w]
	col := &columnDump{
		Seed: db.seed, Model: w.Model, GlobalBatch: w.GlobalBatch,
		GPUTypes: db.GPUTypes, MaxN: db.MaxN,
		Entries:   make([]colEntry, len(c.entries)),
		ArenaWall: c.arenaWall,
		DPWall:    c.dpWall,
		SiaWall:   c.siaWall,
	}
	for i, e := range c.entries {
		k := db.keyAt(w, i)
		col.Entries[i] = colEntry{GPUType: k.GPUType, N: k.N, Entry: e}
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

// importColumn adds a stored column to the database after checking that
// it is the workload's column for this database: the same seed, model and
// global batch, the same GPU types and MaxN, and exactly one entry per
// grid point. A column that fails any check is left out — a dense column
// has no slot for an off-grid entry and no value for a missing one.
func (db *DB) importColumn(w model.Workload, col *columnDump) error {
	if col.Seed != db.seed || col.Model != w.Model || col.GlobalBatch != w.GlobalBatch {
		return fmt.Errorf("column identity %s@%d/seed %d does not match request", col.Model, col.GlobalBatch, col.Seed)
	}
	if !slices.Equal(col.GPUTypes, db.GPUTypes) || col.MaxN != db.MaxN {
		return fmt.Errorf("column grid %v/MaxN %d does not match request %v/MaxN %d", col.GPUTypes, col.MaxN, db.GPUTypes, db.MaxN)
	}
	c := &column{
		entries:   make([]Entry, len(db.GPUTypes)*gridCounts(db.MaxN)),
		arenaWall: col.ArenaWall,
		dpWall:    col.DPWall,
		siaWall:   col.SiaWall,
	}
	seen := make([]bool, len(c.entries))
	for _, ce := range col.Entries {
		i, ok := db.slot(ce.GPUType, ce.N)
		if !ok {
			return fmt.Errorf("column entry %s/n=%d lies off the grid", ce.GPUType, ce.N)
		}
		if seen[i] {
			return fmt.Errorf("column entry %s/n=%d appears twice", ce.GPUType, ce.N)
		}
		seen[i] = true
		c.entries[i] = ce.Entry
	}
	if len(col.Entries) != len(c.entries) {
		return fmt.Errorf("column holds %d of the grid's %d entries", len(col.Entries), len(c.entries))
	}
	db.cols[w] = c
	return nil
}
