package arena

import (
	"fmt"

	"github.com/sjtu-epcc/arena/internal/hw"
)

// Option configures a Session at construction time. Options are applied
// in order; later options override earlier ones.
type Option func(*sessionConfig) error

// sessionConfig is the resolved configuration a Session is built from.
type sessionConfig struct {
	seed      uint64
	workers   int
	gpuTypes  []string
	maxN      int
	workloads []Workload
	cluster   *ClusterSpec
	storeDir  string
	progress  ProgressFunc
	faults    *FaultsConfig
}

// defaultSessionConfig matches the paper's defaults: seed 42, every
// catalog GPU type reachable through the configured cluster (or all, when
// none is set at use time), allocations up to 16 GPUs, the default trace
// workload mix, and a worker pool as wide as the machine.
func defaultSessionConfig() sessionConfig {
	return sessionConfig{seed: 42, maxN: 16}
}

// WithSeed sets the determinism seed the session's engine — and therefore
// every measurement, search and database entry — derives from.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) error {
		c.seed = seed
		return nil
	}
}

// WithWorkers bounds the worker-pool width of the session's parallel
// steps (candidate profiling inside searches, performance-database
// builds). n <= 0 means all cores. Worker counts change wall-clock time
// only, never results.
func WithWorkers(n int) Option {
	return func(c *sessionConfig) error {
		c.workers = n
		return nil
	}
}

// WithGPUTypes restricts the session to the given catalog GPU types (the
// scope of ProfileJob, BuildPerfDB and the communication table). Unknown
// types are rejected at New time.
func WithGPUTypes(types ...string) Option {
	return func(c *sessionConfig) error {
		for _, t := range types {
			if _, err := hw.Lookup(t); err != nil {
				return err
			}
		}
		c.gpuTypes = append([]string(nil), types...)
		return nil
	}
}

// WithCluster scopes the session to a cluster: its GPU types drive
// profiling and database builds, and Simulate uses it as the default
// cluster spec.
func WithCluster(spec ClusterSpec) Option {
	return func(c *sessionConfig) error {
		c.cluster = &spec
		c.gpuTypes = spec.GPUTypes()
		return nil
	}
}

// WithMaxN caps per-job GPU allocations (power-of-two counts up to this
// bound are profiled and stored in the performance database).
func WithMaxN(n int) Option {
	return func(c *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("arena: WithMaxN(%d): need at least 1 GPU", n)
		}
		c.maxN = n
		return nil
	}
}

// WithWorkloads fixes the workload mix BuildPerfDB covers. Defaults to
// the trace generator's workload mix.
func WithWorkloads(ws ...Workload) Option {
	return func(c *sessionConfig) error {
		c.workloads = append([]Workload(nil), ws...)
		return nil
	}
}

// WithStore attaches a content-addressed measurement store rooted at dir,
// created on first use. BuildPerfDB persists the performance database
// there per workload column and rebuilds only the columns the store
// lacks, so adding one workload profiles that workload alone. The
// columns are all the store caches: the session's stage-measurement memo
// stays in memory, since re-measuring the analytic engine costs less than
// reading a persisted memo back. arena-server also keeps its journal in
// the store.
//
// Columns are keyed by content (engine seed and constants, model-graph and
// device-spec fingerprints, workload params, schema version): changing any
// input orphans exactly the columns it invalidates, and processes — or
// differently configured sessions — whose inputs agree share columns.
// Corrupt or stale columns are skipped and rebuilt (see
// PerfDBStoreStats), never served.
//
// The store directory admits one process at a time: New takes an advisory
// file lock released by Close (or process exit), and a second opener —
// say a CLI pointed at a running arena-server's store — fails fast with
// an error wrapping store.ErrLocked instead of racing the first's writes.
//
// An empty dir is a no-op.
func WithStore(dir string) Option {
	return func(c *sessionConfig) error {
		c.storeDir = dir
		return nil
	}
}

// WithFaults enables deterministic fault injection in the session's
// simulations: crashes preempt jobs on dead nodes and roll them back to
// their last modeled checkpoint, stragglers degrade throughput, and the
// Summary gains goodput/waste accounting. The realization is drawn from
// the session seed, so runs stay bit-identical. A Simulate call whose
// SimConfig sets its own Faults field overrides this default; the zero
// FaultsConfig here disables injection again.
func WithFaults(fc FaultsConfig) Option {
	return func(c *sessionConfig) error {
		c.faults = &fc
		return nil
	}
}

// WithProgress streams progress events from every long-running session
// method (BuildPerfDB, searches, ProfileJob, Simulate) to fn. The session
// serializes calls, so fn needs no locking of its own. Progress never
// affects results.
func WithProgress(fn ProgressFunc) Option {
	return func(c *sessionConfig) error {
		c.progress = fn
		return nil
	}
}
