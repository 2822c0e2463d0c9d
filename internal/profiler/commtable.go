// Package profiler implements Arena's disaggregated profiling (§3.4):
// operator-level profiling on a single device with compute-redundancy
// elimination, offline-sampled communication primitives with online
// volume interpolation, and closed-form 1F1B end-to-end modeling (Fig. 9).
//
// The profiler observes operator kernels through the execution engine's
// own KernelTime function — the "kernel-level equivalence" the paper
// achieves by profiling stage executables with the same runtime
// optimizations as direct execution. Its residual end-to-end error
// (Fig. 16a) comes from everything it models instead of measures:
// interpolated collectives, the closed-form pipeline, assumed
// communication overlap, and per-iteration framework overheads.
package profiler

import (
	"fmt"
	"sort"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
)

// CommTable holds offline-sampled communication latencies per
// (primitive, topology), supporting online interpolation by transfer
// volume (§3.4: "Arena offline samples representative data volumes and
// profiles candidate primitives across pre-accessible hardware").
type CommTable struct {
	samples map[commKey][]volumeSample
	// OfflineCostSeconds models the one-shot sampling campaign's duration
	// (the paper reports ≈3.5 hours for a 4-GPU node, §5.8).
	OfflineCostSeconds float64
}

type volumeSample struct {
	volume  float64
	latency float64
}

// Sample volumes: 1 KiB to ~64 GiB, log-spaced ×4 — wide enough to cover
// activation all-reduces (MBs) through MoE gradient syncs (tens of GBs).
func sampleVolumes() []float64 {
	var vols []float64
	for v := 1024.0; v <= 64*1024*1024*1024; v *= 4 {
		vols = append(vols, v)
	}
	return vols
}

// perSampleSeconds models the wall-clock cost of measuring one
// (primitive, topology, volume) point offline, including setup.
const perSampleSeconds = 1.5

// OfflineSampleComm builds the communication table by measuring the
// engine's collectives across every topology reachable on the given GPU
// types with groups up to maxWorkers: intra-node rings and cross-node
// rings with every power-of-two NIC-sharing factor.
func OfflineSampleComm(eng *exec.Engine, gpuTypes []string, maxWorkers int) (*CommTable, error) {
	ct := &CommTable{samples: map[commKey][]volumeSample{}}
	vols := sampleVolumes()
	for _, typ := range gpuTypes {
		spec, err := hw.Lookup(typ)
		if err != nil {
			return nil, err
		}
		var topos []hw.Topology
		for k := 2; k <= maxWorkers; k *= 2 {
			// Intra-node placement (feasible when the node is big enough,
			// but sampled regardless: pre-accessible hardware may differ).
			topos = append(topos, hw.Topology{GPUType: typ, Workers: k, CrossNode: false, NICShare: 1})
			for share := 1; share <= spec.GPUsPerNode && share <= k; share *= 2 {
				topos = append(topos, hw.Topology{GPUType: typ, Workers: k, CrossNode: true, NICShare: share})
			}
		}
		for _, prim := range hw.Primitives() {
			for _, topo := range topos {
				key := newCommKey(prim, topo)
				for _, v := range vols {
					lat := eng.CollectiveTime(&spec, prim, topo, v)
					ct.samples[key] = append(ct.samples[key], volumeSample{volume: v, latency: lat})
					ct.OfflineCostSeconds += perSampleSeconds
				}
				sort.Slice(ct.samples[key], func(i, j int) bool {
					return ct.samples[key][i].volume < ct.samples[key][j].volume
				})
			}
		}
	}
	return ct, nil
}

// commKey keys the table by value: a primitive and its topology,
// normalized the way Topology.String tells topologies apart. An
// intra-node ring ignores NICShare; a cross-node ring reads a NICShare
// below 1 as 1.
type commKey struct {
	prim hw.Primitive
	topo hw.Topology
}

func newCommKey(p hw.Primitive, topo hw.Topology) commKey {
	if !topo.CrossNode || topo.NICShare < 1 {
		topo.NICShare = 1
	}
	return commKey{prim: p, topo: topo}
}

func (k commKey) String() string { return string(k.prim) + "|" + k.topo.String() }

// Interpolate estimates the latency of primitive p over v bytes with the
// given topology by piecewise-linear interpolation between the two
// bracketing offline samples ("the latency of a communication operator is
// proportional to data transfer volume" under fixed primitive and
// topology, §3.4). Volumes outside the sampled range extrapolate from the
// nearest segment.
func (ct *CommTable) Interpolate(p hw.Primitive, topo hw.Topology, v float64) (float64, error) {
	if topo.Workers <= 1 && p != hw.P2P {
		return 0, nil
	}
	ss := ct.samples[newCommKey(p, topo)]
	if len(ss) == 0 {
		return 0, fmt.Errorf("profiler: no offline samples for %s", newCommKey(p, topo))
	}
	if v <= 0 {
		return 0, nil
	}
	// Locate the bracketing segment.
	i := sort.Search(len(ss), func(i int) bool { return ss[i].volume >= v })
	switch {
	case i == 0:
		i = 1
	case i >= len(ss):
		i = len(ss) - 1
	}
	lo, hi := ss[i-1], ss[i]
	frac := (v - lo.volume) / (hi.volume - lo.volume)
	return lo.latency + frac*(hi.latency-lo.latency), nil
}

// Keys returns the table's (primitive, topology) keys, sorted, for
// diagnostics and tests.
func (ct *CommTable) Keys() []string {
	keys := make([]string, 0, len(ct.samples))
	for k := range ct.samples {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}
