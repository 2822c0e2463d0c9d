// Package faults is the deterministic fault-injection subsystem: seeded
// Poisson crash/recovery processes per node, transient straggler
// (degraded-throughput) episodes, and script-driven failure traces. At
// the cluster scales the paper targets, node failures and stragglers are
// the normal operating condition, not an exception — this package lets
// the simulator re-evaluate every scheduling claim under them.
//
// Everything is drawn from internal/rng streams derived from (seed,
// stream label, GPU type, node index), so a fault realization is a pure
// function of the seed and the cluster shape: the same seed always
// produces the same crashes at the same times, independent of how the
// simulation interleaves them — the same determinism discipline the
// execution engine follows. Events are materialized up front for the
// simulation horizon and consumed in a totally ordered sequence
// (time, kind, GPU type, node), so no map iteration or scheduling
// decision can perturb the realization.
package faults

import (
	"fmt"
	"sort"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// Kind is a fault event type.
type Kind string

// Event kinds. A Crash takes a node (and every job allocated on it) down
// instantly; Recover returns its capacity. SlowStart degrades the node's
// achieved throughput by Factor until the matching SlowEnd.
const (
	Crash     Kind = "crash"
	Recover   Kind = "recover"
	SlowStart Kind = "slow-start"
	SlowEnd   Kind = "slow-end"
)

// kindRank orders simultaneous events deterministically: recoveries and
// episode ends first (capacity returns before it is taken), crashes last
// (a completion at the same instant beats the crash).
func kindRank(k Kind) int {
	switch k {
	case Recover:
		return 0
	case SlowEnd:
		return 1
	case SlowStart:
		return 2
	case Crash:
		return 3
	default:
		return 4
	}
}

// Event is one fault occurrence on one node.
type Event struct {
	Time    float64 // seconds from simulation start
	Kind    Kind
	GPUType string
	Node    int     // node index within the typed region
	Factor  float64 // SlowStart only: throughput multiplier in (0, 1)
}

// Schedule is a time-ordered fault-event sequence.
type Schedule []Event

// Sort orders the schedule by (time, kind, GPU type, node, factor) — a
// total order, so a merged model+trace schedule is deterministic no
// matter how it was assembled.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(a, b int) bool {
		x, y := s[a], s[b]
		if x.Time != y.Time {
			return x.Time < y.Time
		}
		if kindRank(x.Kind) != kindRank(y.Kind) {
			return kindRank(x.Kind) < kindRank(y.Kind)
		}
		if x.GPUType != y.GPUType {
			return x.GPUType < y.GPUType
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		return x.Factor < y.Factor
	})
}

// Validate checks every event against a cluster spec: known GPU type,
// node index within the region, non-negative time, and a straggler
// factor in (0, 1). The first offending event is reported.
func (s Schedule) Validate(spec hw.ClusterSpec) error {
	for i, ev := range s {
		r, ok := spec.Region(ev.GPUType)
		if !ok {
			return fmt.Errorf("faults: event %d: unknown GPU type %q in cluster %s", i, ev.GPUType, spec.Name)
		}
		if ev.Node < 0 || ev.Node >= r.Nodes {
			return fmt.Errorf("faults: event %d: node %d outside region %s (%d nodes)", i, ev.Node, ev.GPUType, r.Nodes)
		}
		if ev.Time < 0 {
			return fmt.Errorf("faults: event %d: negative time %v", i, ev.Time)
		}
		switch ev.Kind {
		case Crash, Recover, SlowEnd:
		case SlowStart:
			if ev.Factor <= 0 || ev.Factor >= 1 {
				return fmt.Errorf("faults: event %d: straggler factor %v outside (0, 1)", i, ev.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// TypeFaults parameterizes the stochastic fault processes of a node.
// Zero fields disable the corresponding process.
type TypeFaults struct {
	// MTBF is the mean time between crashes of one node, seconds
	// (exponential inter-failure times — a Poisson failure process, the
	// standard cluster reliability model). 0 disables crashes.
	MTBF float64
	// MTTR is the mean node repair time, seconds (exponential). Defaults
	// to 1800 when crashes are enabled.
	MTTR float64

	// SlowEvery is the mean time between straggler episodes on one node,
	// seconds. 0 disables straggler injection.
	SlowEvery float64
	// SlowDuration is the mean episode length, seconds (default 1800).
	SlowDuration float64
	// SlowFactorLo/Hi bound the degraded throughput multiplier drawn per
	// episode (defaults 0.3 and 0.8).
	SlowFactorLo, SlowFactorHi float64
}

// withDefaults fills the conventional defaults for enabled processes.
func (tf TypeFaults) withDefaults() TypeFaults {
	if tf.MTBF > 0 && tf.MTTR <= 0 {
		tf.MTTR = 1800
	}
	if tf.SlowEvery > 0 {
		if tf.SlowDuration <= 0 {
			tf.SlowDuration = 1800
		}
		if tf.SlowFactorLo <= 0 {
			tf.SlowFactorLo = 0.3
		}
		if tf.SlowFactorHi <= 0 || tf.SlowFactorHi <= tf.SlowFactorLo {
			tf.SlowFactorHi = 0.8
		}
	}
	return tf
}

// Model is the stochastic fault model of a cluster: every node of every
// GPU type runs Default's crash and straggler processes, each node on
// its own random stream.
type Model struct {
	Default TypeFaults
}

// Schedule materializes the model's fault realization for a cluster over
// [0, horizon): one independent rng stream per (process, GPU type, node),
// so adding nodes or types never shifts another node's realization.
func (m *Model) Schedule(spec hw.ClusterSpec, seed uint64, horizon float64) Schedule {
	var out Schedule
	tf := m.Default.withDefaults()
	for _, region := range spec.Regions {
		for node := 0; node < region.Nodes; node++ {
			out = append(out, crashProcess(tf, region.GPUType, node, seed, horizon)...)
			out = append(out, stragglerProcess(tf, region.GPUType, node, seed, horizon)...)
		}
	}
	out.Sort()
	return out
}

// crashProcess draws one node's alternating up/down renewal process.
func crashProcess(tf TypeFaults, gpuType string, node int, seed uint64, horizon float64) Schedule {
	if tf.MTBF <= 0 {
		return nil
	}
	r := rng.Derive(seed, rng.HashString("faults/crash"), rng.HashString(gpuType), uint64(node))
	var out Schedule
	t := 0.0
	for {
		t += r.Exp(tf.MTBF)
		if t >= horizon {
			return out
		}
		out = append(out, Event{Time: t, Kind: Crash, GPUType: gpuType, Node: node})
		t += r.Exp(tf.MTTR)
		if t >= horizon {
			return out // stays down past the horizon
		}
		out = append(out, Event{Time: t, Kind: Recover, GPUType: gpuType, Node: node})
	}
}

// stragglerProcess draws one node's transient degraded-throughput
// episodes.
func stragglerProcess(tf TypeFaults, gpuType string, node int, seed uint64, horizon float64) Schedule {
	if tf.SlowEvery <= 0 {
		return nil
	}
	r := rng.Derive(seed, rng.HashString("faults/slow"), rng.HashString(gpuType), uint64(node))
	var out Schedule
	t := 0.0
	for {
		t += r.Exp(tf.SlowEvery)
		if t >= horizon {
			return out
		}
		factor := r.Range(tf.SlowFactorLo, tf.SlowFactorHi)
		dur := r.Exp(tf.SlowDuration)
		out = append(out, Event{Time: t, Kind: SlowStart, GPUType: gpuType, Node: node, Factor: factor})
		if t+dur >= horizon {
			return out // slow past the horizon
		}
		t += dur
		out = append(out, Event{Time: t, Kind: SlowEnd, GPUType: gpuType, Node: node})
	}
}

// Config drives fault injection and failure handling for one simulation.
// The zero value (or a nil pointer) disables injection entirely, leaving
// the failure-free simulation bit-identical to the pre-fault model.
type Config struct {
	// Model generates stochastic crash/straggler events from the
	// simulation seed (nil = none).
	Model *Model
	// Trace is an explicit scripted event sequence (see ParseTrace),
	// merged with the model's realization.
	Trace Schedule

	// CheckpointInterval is the modeled checkpoint period in seconds of
	// productive training time: a crash rolls a job back to its last
	// completed checkpoint. Default 1800.
	CheckpointInterval float64
	// RetryBudget is how many crash-restarts a job may consume before it
	// is declared failed. Default 5.
	RetryBudget int
	// BackoffBase is the first restart's backoff delay in seconds; each
	// further restart doubles it (exponential backoff keeps a flapping
	// node from burning the whole retry budget in one storm). Default 60.
	BackoffBase float64

	// DisableRecovery is the ablation switch: preempted jobs die
	// immediately instead of restarting from their checkpoint — the
	// configuration that proves the failure-handling path earns its keep.
	DisableRecovery bool
}

// Enabled reports whether the configuration injects any faults.
func (c *Config) Enabled() bool {
	return c != nil && (c.Model != nil || len(c.Trace) > 0)
}

// WithDefaults returns a copy with zero knobs filled with the defaults.
func (c Config) WithDefaults() Config {
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 1800
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 60
	}
	return c
}
