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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// Engine evaluates parallelism plans on simulated hardware. An engine is
// its seed and nothing else: the effect magnitudes are the constants
// below, so two engines of one seed measure everything alike, and
// Fingerprint names what they measure. Construct with NewEngine.
type Engine struct {
	seed uint64
}

// The engine's effect magnitudes. They are typed, so the compiler rounds
// an expression of constants alone to float64, as the runtime would.
const (
	stragglerCoef    float64 = 0.012 // per-log2(group) sync penalty on compute
	contentionCoef   float64 = 0.045 // per-log2(workers) penalty on collectives
	microbatchNoise  float64 = 0.02  // per-microbatch timing noise amplitude
	overlapFraction  float64 = 0.5   // fraction of intra-node DP grad-sync hidden by backward
	crossNodeOverlap float64 = 0.15  // overlap fraction when the DP ring crosses nodes
	iterOverheadS    float64 = 0.018 // fixed per-iteration framework overhead, seconds
	effCeiling       float64 = 0.85  // max fraction of roofline achieved by kernels
	effFloor         float64 = 0.22  // min fraction for tiny kernels
)

// BwdFactor is the backward/forward compute ratio. The profiler assumes
// it for the backward kernels of the stages it measures forward.
const BwdFactor float64 = 2.0

// NewEngine returns the engine of the given determinism seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{seed: seed}
}

// Seed returns the engine's determinism seed.
func (e *Engine) Seed() uint64 { return e.seed }

// Fingerprint condenses everything that determines the engine's
// measurements, the seed and each effect magnitude by exact bit pattern,
// into the 32 hex digits the perfdb column store keys its objects by.
// It hashes the constants themselves, so editing one orphans the objects
// measured under the old value.
func (e *Engine) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d", e.seed)
	for _, f := range []float64{
		stragglerCoef, contentionCoef, microbatchNoise,
		overlapFraction, crossNodeOverlap, iterOverheadS,
		BwdFactor, effCeiling, effFloor,
	} {
		fmt.Fprintf(h, ",%x", math.Float64bits(f))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

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
// curve is work/(work + EffHalfWork) scaled into [effFloor, effCeiling].
func (e *Engine) shapeEfficiency(spec hw.GPU, work float64) float64 {
	if work <= 0 {
		return effFloor
	}
	frac := work / (work + spec.EffHalfWork)
	return effFloor + (effCeiling-effFloor)*frac
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
		base *= 1 + contentionCoef*math.Log2(float64(topo.Workers))
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
// size. See EvaluateMeasured for explicit placement control.
func (e *Engine) Evaluate(g *model.Graph, p *parallel.Plan, spec hw.GPU, globalBatch int) (Result, error) {
	return e.EvaluateMeasured(e, g, p, spec, globalBatch, spec.GPUsPerNode)
}

// StageMeasurer supplies per-stage measurements during plan evaluation.
// The engine itself is the canonical implementation; a memoization layer
// can substitute itself to reuse stage measurements a search already
// performed — MeasureStage is pure, so any implementation returning the
// engine's values yields an identical evaluation.
type StageMeasurer interface {
	MeasureStage(g *model.Graph, st parallel.StagePlan, spec hw.GPU, microSamples float64, gpusPerNode int) StageMeasure
}

// EvaluateMeasured measures one training iteration of graph g under plan
// p on GPUs of the given type, drawing stage measurements from sm, with
// gpusPerNode GPUs packed per node (overriding the catalog default when
// positive; Fig. 2(c)'s 2×1-A40-over-InfiniBand setup uses
// gpusPerNode = 1).
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
			overlap := overlapFraction
			if st.GPUs() > gpusPerNode {
				overlap = crossNodeOverlap
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
	pipeEnd := e.pipelineWavefront(g, stageTimes, p2pTimes, numMicro, microbatchNoise)

	iter := pipeEnd + maxGradSyncLatency + iterOverheadS
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
// penalizes imbalance exactly as a real pipeline does. Each slot's time
// varies by up to ±noise/2 of its stage time.
func (e *Engine) pipelineWavefront(g *model.Graph, stageTimes, p2pTimes []float64, numMicro int, noise float64) float64 {
	s := len(stageTimes)
	prev := make([]float64, s) // done[i][m-1]
	cur := make([]float64, s)
	draws := rng.Derive(e.seed, rng.HashString(g.Name), 0xF1F1)
	for m := 0; m < numMicro; m++ {
		for i := 0; i < s; i++ {
			ready := prev[i]
			if i > 0 {
				arrive := cur[i-1] + p2pTimes[i-1]
				if arrive > ready {
					ready = arrive
				}
			}
			slot := stageTimes[i] * (1 + noise*(draws.Float64()-0.5))
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
