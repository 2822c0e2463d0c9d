package exec

import (
	"math"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// StageMeasure is the engine's measurement of one pipeline stage under a
// given intra-stage parallelization, per microbatch unless noted. It is
// the unit both the full AP search (which "profiles" stage candidates, as
// Alpa does) and end-to-end plan evaluation consume.
type StageMeasure struct {
	FwdCompute float64 // forward compute kernels
	BwdCompute float64 // backward compute kernels (≈ BwdFactor × forward)
	TPComm     float64 // tensor-parallel collectives, forward direction
	Straggler  float64 // multiplicative sync penalty applied to compute
	GradSync   float64 // per-iteration data-parallel gradient all-reduce
	ParamBytes float64 // stage parameter bytes (before TP sharding)
}

// Time returns the stage's per-microbatch latency: straggler-inflated
// compute plus the tensor-parallel collectives of both directions.
func (m StageMeasure) Time() float64 {
	return (m.FwdCompute+m.BwdCompute)*m.Straggler + 2*m.TPComm
}

// OpMeasure is the engine's measurement of one operator inside a stage
// context: its forward kernel latency and (when tensor-parallel) its
// forward collective latency. It depends only on (op, device, samples per
// replica, TP width, node packing) — the unit of the op-level
// compute-redundancy elimination (§3.4) the evalcache performs.
type OpMeasure struct {
	Fwd    float64
	TPComm float64
}

// MeasureOp measures one operator with spr samples per replica under
// tp-way tensor parallelism.
func (e *Engine) MeasureOp(op model.Op, spec hw.GPU, spr float64, tp, gpusPerNode int) OpMeasure {
	om := OpMeasure{Fwd: e.KernelTime(op, spec, spr, tp)}
	if tp > 1 && op.TPCommBytes > 0 {
		topo := hw.Topology{
			GPUType: spec.Name, Workers: tp,
			CrossNode: tp > gpusPerNode, NICShare: gpusPerNode,
		}
		prim := hw.Primitive(op.TPPrimitive)
		if prim == "" {
			prim = hw.AllReduce
		}
		om.TPComm = e.CollectiveTime(&spec, prim, topo, op.TPCommBytes*spr)
	}
	return om
}

// MeasureStage measures one stage candidate: the operator range and
// (dp, tp) shape of st, with microSamples samples per microbatch split
// across dp replicas. This is the quantity a real system obtains by
// compiling and profiling the stage executable on hardware — the unit of
// AP search cost.
func (e *Engine) MeasureStage(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int) StageMeasure {
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	spr := microSamples / float64(st.DP) // samples per replica per microbatch
	return e.MeasureStageFromOps(g, st, spec, microSamples, gpusPerNode, func(i int) OpMeasure {
		return e.MeasureOp(g.Ops[i], spec, spr, st.TP, gpusPerNode)
	})
}

// MeasureStageFromOps assembles a stage measurement from per-operator
// measurements supplied by opAt (indexed into g.Ops), exactly as
// MeasureStage does — same accumulation order, so an opAt serving
// memoized MeasureOp values reproduces MeasureStage bit for bit.
func (e *Engine) MeasureStageFromOps(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int, opAt func(i int) OpMeasure) StageMeasure {
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	var m StageMeasure
	for i := st.OpStart; i < st.OpEnd; i++ {
		om := opAt(i)
		m.FwdCompute += om.Fwd
		m.ParamBytes += g.Ops[i].ParamBytes
		if om.TPComm != 0 {
			m.TPComm += om.TPComm
		}
	}
	m.BwdCompute = m.FwdCompute * e.BwdFactor

	// Replica-synchronization straggler: the slowest of dp×tp workers
	// gates every microbatch boundary.
	m.Straggler = 1.0
	if group := st.GPUs(); group > 1 {
		m.Straggler = 1 + e.StragglerCoef*math.Log2(float64(group))
	}

	// Data-parallel gradient all-reduce (once per iteration).
	if st.DP > 1 {
		share := gpusPerNode / st.TP
		if share < 1 {
			share = 1
		}
		topo := hw.Topology{
			GPUType: spec.Name, Workers: st.DP,
			CrossNode: st.GPUs() > gpusPerNode, NICShare: share,
		}
		m.GradSync = e.CollectiveTime(&spec, hw.AllReduce, topo, m.ParamBytes/float64(st.TP))
	}
	return m
}

// StageFitsMemory reports whether the stage candidate fits device memory
// under the pessimistic assumption that it is the pipeline's first stage
// (which retains the most in-flight microbatches under 1F1B).
func StageFitsMemory(g *model.Graph, st parallel.StagePlan, spec hw.GPU, globalBatch, numMicro, numStages int) bool {
	mem := parallel.StageMemoryBytes(g, st, globalBatch, numMicro, 0, numStages)
	return mem <= spec.MemBytes*parallel.MemoryReserveFraction
}
