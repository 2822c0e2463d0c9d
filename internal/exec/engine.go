// Package exec is the simulated training testbed of this reproduction: a
// deterministic execution engine that plays the role the physical GPU
// clusters (and the Alpa/XLA runtime) play in the paper. Every estimator in
// the system — the planner's roofline loads, the disaggregated profiler,
// Sia-style linear extrapolation — is judged against this engine, exactly
// as the paper judges its estimators against direct measurement.
//
// The engine layers second-order effects on top of the ideal roofline that
// analytic estimators do not capture:
//
//   - shape-dependent kernel efficiency (thin slices of work under-utilize
//     SMs — the diminishing-returns effect of §2.2),
//   - deterministic per-kernel "implementation" jitter (irregular latencies
//     across shapes and architectures, §3.4),
//   - kernel launch overheads,
//   - bandwidth ramp and group-size contention in collectives,
//   - replica-synchronization stragglers growing with group size,
//   - a 1F1B pipeline wavefront with per-microbatch timing noise,
//   - fixed per-iteration framework overhead and allocator variance.
//
// Crucially, KernelTime is a pure function shared with the profiler: the
// profiler measures single-operator latencies through the very same code
// path ("kernel-level equivalence", §3.4), so its residual error comes only
// from the effects it models approximately (communication interpolation,
// closed-form pipeline math, stragglers) — mirroring the paper's error
// anatomy (Fig. 16).
package exec

import (
	"fmt"
	"math"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// Engine evaluates parallelism plans on simulated hardware. The zero value
// is not usable; construct with NewEngine.
type Engine struct {
	seed uint64

	// Tunables (exposed for ablation benches; defaults in NewEngine).
	StragglerCoef    float64 // per-log2(group) sync penalty on compute
	ContentionCoef   float64 // per-log2(workers) penalty on collectives
	MicrobatchNoise  float64 // per-microbatch timing noise amplitude
	OverlapFraction  float64 // fraction of intra-node DP grad-sync hidden by backward
	CrossNodeOverlap float64 // overlap fraction when the DP ring crosses nodes
	IterOverheadS    float64 // fixed per-iteration framework overhead
	BwdFactor        float64 // backward/forward compute ratio (≈2)
	EffCeiling       float64 // max fraction of roofline achieved by kernels
	EffFloor         float64 // min fraction for tiny kernels
}

// NewEngine returns an engine with the default effect magnitudes,
// deterministic under the given seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		seed:             seed,
		StragglerCoef:    0.012,
		ContentionCoef:   0.045,
		MicrobatchNoise:  0.02,
		OverlapFraction:  0.5,
		CrossNodeOverlap: 0.15,
		IterOverheadS:    0.018,
		BwdFactor:        2.0,
		EffCeiling:       0.85,
		EffFloor:         0.22,
	}
}

// Seed returns the engine's determinism seed.
func (e *Engine) Seed() uint64 { return e.seed }

// KernelTime returns the measured latency of one (clustered) operator's
// forward kernels processing `samples` samples with tp-way tensor
// parallelism on the given device. It is shared verbatim with the
// disaggregated profiler: profiling an operator on a single GPU observes
// exactly this function.
func (e *Engine) KernelTime(op model.Op, spec hw.GPU, samples float64, tp int) float64 {
	if samples <= 0 {
		return 0
	}
	flops := op.FLOPs * samples / float64(tp)
	bytes := op.Bytes * samples / float64(tp)

	// Roofline bound with shape-dependent achievable fraction.
	eff := e.shapeEfficiency(spec, flops)
	var tCompute, tMemory float64
	if spec.PeakFLOPS > 0 {
		tCompute = flops / (spec.PeakFLOPS * eff)
	}
	if spec.MemBandwidth > 0 {
		tMemory = bytes / (spec.MemBandwidth * math.Min(1, eff+0.1))
	}
	t := math.Max(tCompute, tMemory)

	// Deterministic per-(kind, arch, shape-bucket) implementation jitter:
	// kernel libraries pick different implementations for different shapes.
	t *= e.kernelJitter(op.Kind, spec.Architecture, flops)

	// Kernel launch / dispatch overhead; clustered operators launch a
	// handful of kernels each.
	const kernelsPerClusteredOp = 6
	t += float64(kernelsPerClusteredOp) * spec.LaunchOverhead
	return t
}

// shapeEfficiency models how much of the roofline a kernel of the given
// per-GPU work (FLOPs) achieves. Real kernels need enough parallel work to
// fill all SMs and hide memory latency; as parallelism strategies slice
// operators thinner (more TP/DP ways), the per-GPU work shrinks and
// utilization drops — the "diminishing returns" of §2.2 and Fig. 18. The
// curve is work/(work + EffHalfWork) scaled into [EffFloor, EffCeiling].
func (e *Engine) shapeEfficiency(spec hw.GPU, work float64) float64 {
	if work <= 0 {
		return e.EffFloor
	}
	frac := work / (work + spec.EffHalfWork)
	return e.EffFloor + (e.EffCeiling-e.EffFloor)*frac
}

// kernelJitter returns a multiplicative factor in [0.93, 1.07] keyed on
// operator kind, GPU architecture and the log-scale work bucket.
func (e *Engine) kernelJitter(kind model.OpKind, arch hw.Arch, flops float64) float64 {
	bucket := uint64(0)
	if flops > 1 {
		bucket = uint64(math.Log2(flops) * 2) // half-octave buckets
	}
	r := rng.Derive(e.seed, rng.HashString(string(kind)), rng.HashString(string(arch)), bucket)
	return 0.93 + 0.14*r.Float64()
}

// CollectiveTime returns the measured latency of a communication primitive
// over v bytes with the given topology on GPUs of the given spec,
// including the engine's group-size contention penalty on top of the
// analytic alpha-beta cost. Offline communication sampling by the
// profiler observes exactly this function at its chosen sample volumes.
// It panics on a negative volume or an unknown primitive, which only a
// caller bug produces.
func (e *Engine) CollectiveTime(spec *hw.GPU, p hw.Primitive, topo hw.Topology, v float64) float64 {
	base, err := spec.CollectiveTime(p, topo, v)
	if err != nil {
		panic(err)
	}
	if topo.Workers > 1 {
		base *= 1 + e.ContentionCoef*math.Log2(float64(topo.Workers))
	}
	return base
}

// Result reports the engine's measurement of one plan execution.
type Result struct {
	IterTime   float64 // seconds per training iteration (one global batch)
	Throughput float64 // samples per second
	Fits       bool    // false when any stage exceeds device memory
	MaxMem     float64 // peak per-GPU footprint, bytes

	// GPU-time breakdown per iteration (seconds × GPUs), the currency of
	// Fig. 16 (profiling cost) and Fig. 18 (compute/comm split).
	ComputeGPUTime float64
	CommGPUTime    float64
	IdleGPUTime    float64

	// StageTime is the per-microbatch latency of each stage (fwd+bwd,
	// including tensor-parallel communication).
	StageTime []float64
}

// Evaluate measures the plan on the device type with its default node
// size. See EvaluateWithNodes for explicit placement control.
func (e *Engine) Evaluate(g *model.Graph, p *parallel.Plan, spec hw.GPU, globalBatch int) (Result, error) {
	return e.EvaluateWithNodes(g, p, spec, globalBatch, spec.GPUsPerNode)
}

// StageMeasurer supplies per-stage measurements during plan evaluation.
// The engine itself is the canonical implementation; a memoization layer
// can substitute itself to reuse stage measurements a search already
// performed — MeasureStage is pure, so any implementation returning the
// engine's values yields an identical evaluation.
type StageMeasurer interface {
	MeasureStage(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int) StageMeasure
}

// EvaluateWithNodes measures one training iteration of graph g under plan
// p on GPUs of the given type, with gpusPerNode GPUs packed per node
// (overriding the catalog default; Fig. 2(c)'s 2×1-A40-over-InfiniBand
// setup uses gpusPerNode = 1).
func (e *Engine) EvaluateWithNodes(g *model.Graph, p *parallel.Plan, spec hw.GPU, globalBatch, gpusPerNode int) (Result, error) {
	return e.EvaluateMeasured(e, g, p, spec, globalBatch, gpusPerNode)
}

// EvaluateMeasured is EvaluateWithNodes drawing stage measurements from
// an explicit StageMeasurer.
func (e *Engine) EvaluateMeasured(sm StageMeasurer, g *model.Graph, p *parallel.Plan, spec hw.GPU, globalBatch, gpusPerNode int) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	if globalBatch < 1 {
		return Result{}, fmt.Errorf("exec: global batch %d", globalBatch)
	}
	if gpusPerNode < 1 {
		gpusPerNode = spec.GPUsPerNode
	}
	numStages := len(p.Stages)
	numMicro := p.NumMicrobatches
	totalGPUs := p.TotalGPUs()

	// Memory feasibility.
	maxMem, fits := parallel.PlanMemory(g, p, spec, globalBatch)
	res := Result{Fits: fits, MaxMem: maxMem}
	if !fits {
		return res, nil
	}

	microSamples := float64(globalBatch) / float64(numMicro)

	stageTimes := make([]float64, numStages)
	p2pTimes := make([]float64, numStages) // boundary after stage i
	var computeGPU, commGPU float64
	var maxGradSyncLatency float64

	for i, st := range p.Stages {
		m := sm.MeasureStage(g, st, spec, microSamples, gpusPerNode)
		m.BwdCompute *= e.bwdJitter(g, i) // per-stage backward variance
		stageTimes[i] = m.Time()

		group := float64(st.GPUs())
		if m.GradSync > 0 {
			commGPU += m.GradSync * group
			// Backward-overlap hides part of the sync; bucketed all-reduce
			// over a thin shared NIC overlaps far less than NVLink-local
			// rings do.
			overlap := e.OverlapFraction
			if st.GPUs() > gpusPerNode {
				overlap = e.CrossNodeOverlap
			}
			latent := m.GradSync * (1 - overlap)
			if latent > maxGradSyncLatency {
				maxGradSyncLatency = latent
			}
		}

		// Stage-boundary point-to-point activation transfer.
		if i < numStages-1 {
			lastOp := g.Ops[st.OpEnd-1]
			crossNode := totalGPUs > gpusPerNode
			p2pTimes[i] = hw.P2PTime(spec, lastOp.ActBytes*microSamples, crossNode)
		}

		computeGPU += (m.FwdCompute + m.BwdCompute) * float64(numMicro) * group
		commGPU += 2 * m.TPComm * float64(numMicro) * group
		if i < numStages-1 {
			commGPU += p2pTimes[i] * float64(numMicro) // sender side
		}
	}

	// 1F1B pipeline wavefront: done[i][m] is when stage i finishes its
	// m-th microbatch slot; per-slot time carries deterministic noise.
	pipeEnd := e.pipelineWavefront(g, stageTimes, p2pTimes, numMicro)

	iter := pipeEnd + maxGradSyncLatency + e.IterOverheadS
	// Allocator / framework variance per (model, plan shape, device).
	iter *= e.allocJitter(g, p, spec)

	res.IterTime = iter
	res.Throughput = float64(globalBatch) / iter
	res.StageTime = stageTimes
	res.ComputeGPUTime = computeGPU
	res.CommGPUTime = commGPU
	res.IdleGPUTime = math.Max(0, iter*float64(totalGPUs)-computeGPU-commGPU)
	return res, nil
}

// pipelineWavefront runs the microbatch recurrence
//
//	done[i][m] = max(done[i][m-1], done[i-1][m] + p2p[i-1]) + slot(i, m)
//
// which reduces to fill time + (B−1)×bottleneck for balanced stages and
// penalizes imbalance exactly as a real pipeline does.
func (e *Engine) pipelineWavefront(g *model.Graph, stageTimes, p2pTimes []float64, numMicro int) float64 {
	s := len(stageTimes)
	prev := make([]float64, s) // done[i][m-1]
	cur := make([]float64, s)
	noise := rng.Derive(e.seed, rng.HashString(g.Name), 0xF1F1)
	for m := 0; m < numMicro; m++ {
		for i := 0; i < s; i++ {
			ready := prev[i]
			if i > 0 {
				arrive := cur[i-1] + p2pTimes[i-1]
				if arrive > ready {
					ready = arrive
				}
			}
			slot := stageTimes[i] * (1 + e.MicrobatchNoise*(noise.Float64()-0.5))
			cur[i] = ready + slot
		}
		prev, cur = cur, prev
	}
	return prev[s-1]
}

// deriveFor returns one uniform draw from a (seed, name, key) stream —
// shared by the homogeneous and heterogeneous jitter paths.
func deriveFor(seed uint64, name string, key uint64) float64 {
	return rng.Derive(seed, rng.HashString(name), key).Float64()
}

// bwdJitter varies the backward/forward ratio slightly per stage.
func (e *Engine) bwdJitter(g *model.Graph, stage int) float64 {
	r := rng.Derive(e.seed, rng.HashString(g.Name), uint64(stage), 0xB3D)
	return 0.97 + 0.06*r.Float64()
}

// allocJitter is the per-(model, plan shape, device) allocator variance in
// [1.01, 1.05] — end-to-end effects no operator-level profiler can see.
func (e *Engine) allocJitter(g *model.Graph, p *parallel.Plan, spec hw.GPU) float64 {
	r := rng.Derive(e.seed,
		rng.HashString(g.Name),
		rng.HashString(spec.Name),
		uint64(len(p.Stages)),
		uint64(p.TotalGPUs()),
	)
	return 1.01 + 0.04*r.Float64()
}

// DirectMeasureCost returns the GPU-time cost (seconds × GPUs) of
// measuring the plan by direct execution — the Oracle of Fig. 16: the
// whole allocation is reserved for `trials` measured iterations plus a
// warm-up.
func DirectMeasureCost(r Result, p *parallel.Plan, trials int) float64 {
	if trials < 1 {
		trials = 1
	}
	// One warm-up iteration plus measured trials.
	return r.IterTime * float64(trials+1) * float64(p.TotalGPUs())
}
