package exec

import (
	"fmt"
	"math"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// HeteroStage assigns one pipeline stage to a GPU type: the §6 intra-job
// heterogeneity extension. Each stage remains internally homogeneous
// (stages are the natural heterogeneity boundary — pipeline stages only
// exchange small boundary activations, so slow cross-region links hurt
// far less between stages than inside a tensor- or data-parallel group).
type HeteroStage struct {
	parallel.StagePlan
	GPUType string
}

// HeteroPlan is a pipeline whose stages may run on different GPU types.
type HeteroPlan struct {
	Stages          []HeteroStage
	NumMicrobatches int
}

// Validate checks structure: contiguous coverage, known GPU types,
// positive degrees.
func (p *HeteroPlan) Validate(g *model.Graph) error {
	if len(p.Stages) == 0 || p.NumMicrobatches <= 0 {
		return fmt.Errorf("exec: empty hetero plan")
	}
	next := 0
	for i, st := range p.Stages {
		if _, err := hw.Lookup(st.GPUType); err != nil {
			return fmt.Errorf("exec: hetero stage %d: %w", i, err)
		}
		if st.OpStart != next || st.OpEnd <= st.OpStart || st.DP < 1 || st.TP < 1 {
			return fmt.Errorf("exec: hetero stage %d malformed", i)
		}
		next = st.OpEnd
	}
	if next != len(g.Ops) {
		return fmt.Errorf("exec: hetero plan covers %d of %d ops", next, len(g.Ops))
	}
	return nil
}

// EvaluateHetero measures a heterogeneous pipeline: each stage computes on
// its own GPU type; boundary transfers between stages of different types
// cross regions and pay the slower of the two NIC paths (§3.5: "allocating
// heterogeneous GPUs to a single job results in cross-region communication
// with much limited bandwidth").
func (e *Engine) EvaluateHetero(g *model.Graph, p *HeteroPlan, globalBatch int) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	if globalBatch < 1 {
		return Result{}, fmt.Errorf("exec: global batch %d", globalBatch)
	}
	numStages := len(p.Stages)
	numMicro := p.NumMicrobatches
	microSamples := float64(globalBatch) / float64(numMicro)

	// Memory feasibility per stage on its own device type.
	res := Result{Fits: true}
	for i, st := range p.Stages {
		spec := hw.MustLookup(st.GPUType)
		mem := parallel.StageMemoryBytes(g, st.StagePlan, globalBatch, numMicro, i, numStages)
		if mem > res.MaxMem {
			res.MaxMem = mem
		}
		if mem > spec.MemBytes*parallel.MemoryReserveFraction {
			res.Fits = false
		}
	}
	if !res.Fits {
		return res, nil
	}

	stageTimes := make([]float64, numStages)
	p2pTimes := make([]float64, numStages)
	var computeGPU, commGPU float64
	var maxGradSyncLatency float64
	totalGPUs := 0

	for i, st := range p.Stages {
		spec := hw.MustLookup(st.GPUType)
		m := e.MeasureStage(g, st.StagePlan, spec, microSamples, spec.GPUsPerNode)
		m.BwdCompute *= e.bwdJitter(g, i)
		stageTimes[i] = m.Time()
		group := float64(st.GPUs())
		totalGPUs += st.GPUs()

		if m.GradSync > 0 {
			commGPU += m.GradSync * group
			overlap := overlapFraction
			if st.GPUs() > spec.GPUsPerNode {
				overlap = crossNodeOverlap
			}
			if latent := m.GradSync * (1 - overlap); latent > maxGradSyncLatency {
				maxGradSyncLatency = latent
			}
		}

		if i < numStages-1 {
			lastOp := g.Ops[st.OpEnd-1]
			next := p.Stages[i+1]
			vol := lastOp.ActBytes * microSamples
			if next.GPUType != st.GPUType {
				// Cross-region hop: bottlenecked by the slower NIC.
				a := hw.P2PTime(spec, vol, true)
				b := hw.P2PTime(hw.MustLookup(next.GPUType), vol, true)
				p2pTimes[i] = math.Max(a, b) * (1 + crossRegionPenalty)
			} else {
				p2pTimes[i] = hw.P2PTime(spec, vol, st.GPUs()+next.GPUs() > spec.GPUsPerNode)
			}
		}

		computeGPU += (m.FwdCompute + m.BwdCompute) * float64(numMicro) * group
		commGPU += 2 * m.TPComm * float64(numMicro) * group
		if i < numStages-1 {
			commGPU += p2pTimes[i] * float64(numMicro)
		}
	}

	pipeEnd := e.pipelineWavefront(g, stageTimes, p2pTimes, numMicro, microbatchNoise)
	iter := (pipeEnd + maxGradSyncLatency + iterOverheadS) * e.heteroJitter(g, p)

	res.IterTime = iter
	res.Throughput = float64(globalBatch) / iter
	res.StageTime = stageTimes
	res.ComputeGPUTime = computeGPU
	res.CommGPUTime = commGPU
	res.IdleGPUTime = math.Max(0, iter*float64(totalGPUs)-computeGPU-commGPU)
	return res, nil
}

// crossRegionPenalty models routing/congestion between typed regions on
// top of the slower NIC's transfer time.
const crossRegionPenalty = 0.25

// heteroJitter mirrors allocJitter for heterogeneous plans.
func (e *Engine) heteroJitter(g *model.Graph, p *HeteroPlan) float64 {
	key := uint64(len(p.Stages))
	for _, st := range p.Stages {
		key = key*31 + uint64(st.GPUs())
	}
	r := deriveFor(e.seed, g.Name, key)
	return 1.01 + 0.04*r
}
