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
// memoized MeasureOp values reproduces MeasureStage bit for bit. It is
// MeasureStageRow with the one end st.OpEnd.
func (e *Engine) MeasureStageFromOps(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int, opAt func(i int) OpMeasure) StageMeasure {
	ends := [1]int{st.OpEnd}
	var out [1]StageMeasure
	e.MeasureStageRow(g, st, ends[:], spec, gpusPerNode, opAt, out[:])
	return out[0]
}

// MeasureStageRow measures a row of stages that share st's start op and
// (DP, TP) shape: out[k] receives the measurement of ops
// [st.OpStart, ends[k]), st.OpEnd being ignored. ends must not descend;
// an end may repeat. It is one left fold over [st.OpStart, the last end)
// that finishes a measurement at each requested end: the running sums
// after op e−1 are the same additions from zero, in the same order, that
// a stage [st.OpStart, e) makes on its own, so each out[k] is bit for
// bit MeasureStageFromOps' value while the row costs one op measurement
// per op instead of one per op and stage.
func (e *Engine) MeasureStageRow(g *model.Graph, st parallel.StagePlan, ends []int, spec hw.GPU, gpusPerNode int, opAt func(i int) OpMeasure, out []StageMeasure) {
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	// Replica-synchronization straggler: the slowest of dp×tp workers
	// gates every microbatch boundary.
	straggler := 1.0
	if group := st.GPUs(); group > 1 {
		straggler = 1 + stragglerCoef*math.Log2(float64(group))
	}
	// Data-parallel gradient all-reduce (once per iteration).
	share := max(1, gpusPerNode/st.TP)
	topo := hw.Topology{
		GPUType: spec.Name, Workers: st.DP,
		CrossNode: st.GPUs() > gpusPerNode, NICShare: share,
	}

	var m StageMeasure
	i := st.OpStart
	for k, end := range ends {
		if end < i {
			panic("exec: MeasureStageRow: ends must ascend from the start op")
		}
		for ; i < end; i++ {
			om := opAt(i)
			m.FwdCompute += om.Fwd
			m.ParamBytes += g.Ops[i].ParamBytes
			if om.TPComm != 0 {
				m.TPComm += om.TPComm
			}
		}
		fin := m
		fin.BwdCompute = fin.FwdCompute * BwdFactor
		fin.Straggler = straggler
		if st.DP > 1 {
			fin.GradSync = e.CollectiveTime(&spec, hw.AllReduce, topo, fin.ParamBytes/float64(st.TP))
		}
		out[k] = fin
	}
}

// StageFitsMemory reports whether the stage candidate fits device memory
// under the pessimistic assumption that it is the pipeline's first stage
// (which retains the most in-flight microbatches under 1F1B).
func StageFitsMemory(g *model.Graph, st parallel.StagePlan, spec hw.GPU, globalBatch, numMicro, numStages int) bool {
	mem := parallel.StageMemoryBytes(g, st, globalBatch, numMicro, 0, numStages)
	return mem <= spec.MemBytes*parallel.MemoryReserveFraction
}
