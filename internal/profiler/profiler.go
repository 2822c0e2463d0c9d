package profiler

import (
	"context"
	"fmt"
	"math"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/planner"
)

// Profiler performs single-device disaggregated profiling of proxy plans.
type Profiler struct {
	eng   *exec.Engine
	comm  *CommTable
	cache map[opConfigKey]float64 // measured fwd kernel latencies (dedup)
}

// Trials is the number of measured repetitions per unique operator
// configuration (kernels are cheap to repeat on one GPU). Fig. 16(b)
// and arena-profile bill direct measurement with the same count.
const Trials = 3

// overlapAssumption is the backward-overlap fraction the profiler's
// end-to-end model assumes for gradient synchronization on NVLink-local
// rings; crossNodeOverlapAssumption applies when the ring spans nodes.
// Both stay optimistic relative to the engine's truth — a deliberate
// model/reality gap that grows with the data-parallel width (Fig. 16a's
// rising error).
const (
	overlapAssumption          = 0.5
	crossNodeOverlapAssumption = 0.25
)

// New constructs a profiler over the engine and an offline-sampled
// communication table.
func New(eng *exec.Engine, comm *CommTable) *Profiler {
	return &Profiler{
		eng:   eng,
		comm:  comm,
		cache: map[opConfigKey]float64{},
	}
}

// opConfigKey identifies a unique operator configuration after intra-stage
// reconfiguration: operators with identical kind, shape quantities, and
// parallel slicing launch identical kernels and are profiled once
// (compute-redundancy elimination, §3.4).
type opConfigKey struct {
	kind    model.OpKind
	gpu     string
	flops   float64
	bytes   float64
	samples float64
	tp      int
}

// Estimate is the profiler's output for one grid's proxy plan.
type Estimate struct {
	Grid core.Grid
	Plan *parallel.Plan

	IterTime   float64 // estimated end-to-end iteration time
	Throughput float64 // estimated samples/s

	// ProfileGPUTime is the measurement cost in GPU-seconds: unique
	// operator configurations × (fwd+bwd) × trials, on a single GPU.
	ProfileGPUTime float64
	UniqueOps      int // configurations actually measured for this plan
	TotalOps       int // operator instances the plan executes
}

// ProfileGridPlan profiles one grid's proxy plan: measures unique operator
// kernels on a single device, interpolates communication from the offline
// table, and models the 1F1B pipeline end to end (Fig. 9).
//
// The profiler's op-latency cache persists across calls, so profiling many
// grids of one job (or many jobs sharing operator shapes) skips repeated
// configurations — the cross-grid redundancy elimination of §5.8.
func (p *Profiler) ProfileGridPlan(g *model.Graph, gp *planner.GridPlan) (Estimate, error) {
	if gp == nil || !gp.Feasible || gp.Proxy == nil {
		return Estimate{}, fmt.Errorf("profiler: grid plan is infeasible")
	}
	spec, err := hw.Lookup(gp.Grid.GPUType)
	if err != nil {
		return Estimate{}, err
	}
	plan := gp.Proxy.Plan
	est := Estimate{Grid: gp.Grid, Plan: plan}

	numMicro := plan.NumMicrobatches
	microSamples := float64(gp.Grid.Workload.GlobalBatch) / float64(numMicro)
	gpusPerNode := spec.GPUsPerNode

	stageTimes := make([]float64, len(plan.Stages))
	p2pTimes := make([]float64, len(plan.Stages))
	var gradSyncLatent float64

	for i, st := range plan.Stages {
		spr := microSamples / float64(st.DP)
		var fwd, tpComm, stageParams float64
		for _, op := range g.Ops[st.OpStart:st.OpEnd] {
			est.TotalOps++
			fwd += p.measureOp(op, spec, spr, st.TP, &est)
			stageParams += op.ParamBytes
			if st.TP > 1 && op.TPCommBytes > 0 {
				topo := hw.Topology{
					GPUType: spec.Name, Workers: st.TP,
					CrossNode: st.TP > gpusPerNode, NICShare: gpusPerNode,
				}
				prim := hw.Primitive(op.TPPrimitive)
				if prim == "" {
					prim = hw.AllReduce
				}
				t, err := p.comm.Interpolate(prim, topo, op.TPCommBytes*spr)
				if err != nil {
					return Estimate{}, err
				}
				tpComm += t
			}
		}
		// Backward kernels are measured alongside forward in the stage
		// executable; the profiler sees the generic bwd/fwd ratio.
		bwd := fwd * exec.BwdFactor
		stageTimes[i] = fwd + bwd + 2*tpComm

		if st.DP > 1 {
			share := gpusPerNode / st.TP
			if share < 1 {
				share = 1
			}
			topo := hw.Topology{
				GPUType: spec.Name, Workers: st.DP,
				CrossNode: st.GPUs() > gpusPerNode, NICShare: share,
			}
			sync, err := p.comm.Interpolate(hw.AllReduce, topo, stageParams/float64(st.TP))
			if err != nil {
				return Estimate{}, err
			}
			overlap := overlapAssumption
			if topo.CrossNode {
				overlap = crossNodeOverlapAssumption
			}
			latent := sync * (1 - overlap)
			if latent > gradSyncLatent {
				gradSyncLatent = latent
			}
		}

		if i < len(plan.Stages)-1 {
			lastOp := g.Ops[st.OpEnd-1]
			crossNode := plan.TotalGPUs() > gpusPerNode
			topo := hw.Topology{GPUType: spec.Name, Workers: 2, CrossNode: crossNode, NICShare: 1}
			t, err := p.comm.Interpolate(hw.P2P, topo, lastOp.ActBytes*microSamples)
			if err != nil {
				return Estimate{}, err
			}
			p2pTimes[i] = t
		}
	}

	// End-to-end pipeline model (Fig. 9): the first microbatch traverses
	// every stage (with boundary transfers); the remaining B−1 microbatches
	// pay only the bottleneck stage, whose boundary communication overlaps
	// with the next microbatch's computation.
	var fill, bottleneck float64
	for i, t := range stageTimes {
		fill += t + p2pTimes[i]
		if t > bottleneck {
			bottleneck = t
		}
	}
	est.IterTime = fill + float64(numMicro-1)*bottleneck + gradSyncLatent
	est.Throughput = float64(gp.Grid.Workload.GlobalBatch) / est.IterTime
	// Building each stage's single-device executable is part of the
	// profiling bill (pre-compilation, §3.4).
	est.ProfileGPUTime += stageCompileSeconds * float64(len(plan.Stages))
	return est, nil
}

// Single-device profiling cost constants: reconfiguring and pre-compiling
// an operator's kernels, and building one stage executable, are paid in
// wall-clock seconds on the (single) profiling GPU.
const (
	opSetupSeconds      = 0.5
	stageCompileSeconds = 1.0
)

// measureOp returns the operator's forward kernel latency, measuring it on
// a single device unless an identical configuration was already profiled.
// Measurement cost (setup + fwd/bwd kernels × trials) is charged to the
// estimate only for cache misses.
func (p *Profiler) measureOp(op model.Op, spec hw.GPU, samples float64, tp int, est *Estimate) float64 {
	key := opConfigKey{kind: op.Kind, gpu: spec.Name, flops: op.FLOPs, bytes: op.Bytes, samples: samples, tp: tp}
	if t, ok := p.cache[key]; ok {
		return t
	}
	t := p.eng.KernelTime(op, spec, samples, tp)
	p.cache[key] = t
	est.UniqueOps++
	est.ProfileGPUTime += opSetupSeconds + t*(1+exec.BwdFactor)*Trials
	return t
}

// JobProfile aggregates the profiled grids of one (workload, types) job:
// the scheduler's view of its AP performance.
type JobProfile struct {
	Workload model.Workload
	// Estimates maps each feasible grid to its profiled estimate.
	Estimates map[core.Grid]*Estimate
	// GridPlans retains the planner output per grid (the pruned search
	// needs the Pareto frontier at deployment time).
	GridPlans map[core.Grid]*planner.GridPlan
	// TotalProfileGPUTime is the job's cumulative profiling cost in
	// GPU-seconds, with cross-grid redundancy eliminated.
	TotalProfileGPUTime float64
}

// BestGrid returns the best-estimated grid for a resource, or false when
// no grid of that resource is feasible. This is the grid traversal of
// §3.5: "Arena traverses relevant grids for the best-performing one".
func (jp *JobProfile) BestGrid(r core.Resource) (core.Grid, bool) {
	var best core.Grid
	var bestThr float64
	found := false
	for grid, est := range jp.Estimates {
		if grid.GPUType != r.GPUType || grid.N != r.N {
			continue
		}
		if !found || est.Throughput > bestThr ||
			(est.Throughput == bestThr && grid.String() < best.String()) {
			best, bestThr, found = grid, est.Throughput, true
		}
	}
	return best, found
}

// ProfileJobCtx plans and profiles every grid of a workload across the
// given GPU types up to maxN GPUs per type, returning the job's complete
// profile. The grid loop stops at the first cancelled check and returns
// ctx.Err(); progress (which may be nil) receives one "profile.job" event
// per grid planned.
func ProfileJobCtx(ctx context.Context, pl *planner.Planner, pr *Profiler, g *model.Graph, w model.Workload, gpuTypes []string, maxN int, progress core.ProgressFunc) (*JobProfile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jp := &JobProfile{
		Workload:  w,
		Estimates: map[core.Grid]*Estimate{},
		GridPlans: map[core.Grid]*planner.GridPlan{},
	}
	grids := core.Enumerate(w, len(g.Ops), gpuTypes, maxN)
	for i, grid := range grids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gp, err := pl.PlanGrid(g, grid)
		if err != nil {
			return nil, err
		}
		progress.Emit("profile.job", grid.String(), i+1, len(grids))
		if !gp.Feasible {
			continue
		}
		jp.GridPlans[grid] = gp
		est, err := pr.ProfileGridPlan(g, gp)
		if err != nil {
			return nil, err
		}
		jp.Estimates[grid] = &est
		jp.TotalProfileGPUTime += est.ProfileGPUTime
	}
	if math.IsNaN(jp.TotalProfileGPUTime) {
		return nil, fmt.Errorf("profiler: NaN profiling cost for %v", w)
	}
	return jp, nil
}
