// Package parallel defines the hybrid-parallelism plan representation the
// whole system operates on: a model is partitioned into pipeline stages
// (inter-operator parallelism, P_inter in §3.2), and each stage is
// parallelized across its assigned GPUs with a data-parallel ×
// tensor-parallel factorization (intra-operator parallelism, P_intra).
// The package also provides the per-GPU memory-footprint model used to
// decide plan feasibility (OOM), the root cause of the paper's Case#2
// scheduling pathology (§2.2).
package parallel

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
)

// StagePlan assigns a contiguous operator range [OpStart, OpEnd) of a
// clustered graph to DP×TP GPUs.
type StagePlan struct {
	OpStart int // inclusive index into Graph.Ops
	OpEnd   int // exclusive
	DP      int // data-parallel ways (microbatch split)
	TP      int // tensor/model-parallel ways (operator split)
}

// GPUs returns the stage's GPU count (DP × TP).
func (s StagePlan) GPUs() int { return s.DP * s.TP }

// StagesKey renders a stage sequence as a compact unique string — the
// canonical dedup/memo key for plan identity. Unlike Plan.String (which
// shows only the intra-stage degrees), it encodes the operator ranges, so
// two plans differing only in partition boundaries never collide.
func StagesKey(stages []StagePlan) string {
	var b strings.Builder
	b.Grow(12 * len(stages))
	for _, s := range stages {
		b.WriteString(strconv.Itoa(s.OpStart))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(s.OpEnd))
		b.WriteByte('d')
		b.WriteString(strconv.Itoa(s.DP))
		b.WriteByte('t')
		b.WriteString(strconv.Itoa(s.TP))
		b.WriteByte(';')
	}
	return b.String()
}

// Plan is a complete scheduling-parallelism execution plan for one job on
// a fixed GPU allocation: pipeline stages plus the microbatch count.
type Plan struct {
	Stages []StagePlan
	// NumMicrobatches is the gradient-accumulation microbatch count B.
	// The paper sets B = 4 × pipeline stages (§5.1).
	NumMicrobatches int
}

// DefaultMicrobatches returns the paper's microbatch policy: 4 microbatches
// per pipeline stage (§5.1, following GPipe guidance).
func DefaultMicrobatches(stages int) int { return 4 * stages }

// TotalGPUs returns the plan's total GPU demand.
func (p *Plan) TotalGPUs() int {
	n := 0
	for _, s := range p.Stages {
		n += s.GPUs()
	}
	return n
}

// String renders the plan compactly, e.g. "PP2[DP2,DP2]" or
// "PP2[DP2xTP2,TP4]"; single-stage plans render as "DP4" / "TP2" / "DP2xTP2".
func (p *Plan) String() string {
	if p == nil || len(p.Stages) == 0 {
		return "<empty>"
	}
	stage := func(s StagePlan) string {
		switch {
		case s.TP == 1 && s.DP == 1:
			return "G1"
		case s.TP == 1:
			return fmt.Sprintf("DP%d", s.DP)
		case s.DP == 1:
			return fmt.Sprintf("TP%d", s.TP)
		default:
			return fmt.Sprintf("DP%dxTP%d", s.DP, s.TP)
		}
	}
	if len(p.Stages) == 1 {
		return stage(p.Stages[0])
	}
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = stage(s)
	}
	return fmt.Sprintf("PP%d[%s]", len(p.Stages), strings.Join(parts, ","))
}

// Degrees renders the paper's Fig. 2/18-style plan annotation using the
// dominant degrees, e.g. "PP2,DP2", "DP4", "TP2", "PP2,DP2,TP2".
func (p *Plan) Degrees() string {
	if p == nil || len(p.Stages) == 0 {
		return ""
	}
	var parts []string
	if len(p.Stages) > 1 {
		parts = append(parts, fmt.Sprintf("PP%d", len(p.Stages)))
	}
	// Use the first stage's intra-parallelism as the representative.
	s := p.Stages[0]
	if s.DP > 1 {
		parts = append(parts, fmt.Sprintf("DP%d", s.DP))
	}
	if s.TP > 1 {
		parts = append(parts, fmt.Sprintf("TP%d", s.TP))
	}
	if len(parts) == 0 {
		return "G1"
	}
	return strings.Join(parts, ",")
}

// Validate checks the plan is well-formed against a graph: stages cover
// [0, len(Ops)) contiguously in order, with positive parallel degrees and
// a positive microbatch count.
func (p *Plan) Validate(g *model.Graph) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("parallel: plan has no stages")
	}
	if p.NumMicrobatches <= 0 {
		return fmt.Errorf("parallel: plan has %d microbatches", p.NumMicrobatches)
	}
	next := 0
	for i, s := range p.Stages {
		if s.OpStart != next {
			return fmt.Errorf("parallel: stage %d starts at op %d, want %d", i, s.OpStart, next)
		}
		if s.OpEnd <= s.OpStart {
			return fmt.Errorf("parallel: stage %d is empty", i)
		}
		if s.DP < 1 || s.TP < 1 {
			return fmt.Errorf("parallel: stage %d has DP=%d TP=%d", i, s.DP, s.TP)
		}
		next = s.OpEnd
	}
	if next != len(g.Ops) {
		return fmt.Errorf("parallel: stages cover %d ops, graph has %d", next, len(g.Ops))
	}
	return nil
}

// PureDP builds the single-stage pure data-parallel plan over n GPUs — the
// static parallelism (SP) assumption of prior schedulers (§2.2).
func PureDP(g *model.Graph, n int) *Plan {
	return &Plan{
		Stages:          []StagePlan{{OpStart: 0, OpEnd: len(g.Ops), DP: n, TP: 1}},
		NumMicrobatches: DefaultMicrobatches(1),
	}
}

// PureTP builds the single-stage pure tensor-parallel plan over n GPUs.
func PureTP(g *model.Graph, n int) *Plan {
	return &Plan{
		Stages:          []StagePlan{{OpStart: 0, OpEnd: len(g.Ops), DP: 1, TP: n}},
		NumMicrobatches: DefaultMicrobatches(1),
	}
}

// MemoryReserveFraction is the usable fraction of device memory; the
// remainder is held back for framework workspace and fragmentation.
const MemoryReserveFraction = 0.90

// AdamStateMultiplier converts FP16 parameter bytes into total static
// training state: fp16 weights + fp16 gradients + fp32 master weights +
// fp32 Adam first/second moments = 16 bytes per parameter = 8× the fp16
// parameter bytes. Data parallelism replicates this state on every
// replica — the reason "static DP consumes the most memory among all
// parallelism" (§1, Case#2).
const AdamStateMultiplier = 8.0

// StageMemoryBytes returns the per-GPU memory footprint of a stage:
//
//	static:      AdamStateMultiplier × stageParamBytes / TP
//	activations: ActMemFactor × Σ ActBytes × samplesPerReplica × inflight / TP
//
// where samplesPerReplica = globalBatch / (NumMicrobatches × DP) and
// inflight is the number of microbatches a 1F1B schedule keeps live on
// this stage (numStages − stageIdx, capped by the microbatch count).
func StageMemoryBytes(g *model.Graph, st StagePlan, globalBatch, numMicro, stageIdx, numStages int) float64 {
	var params, acts float64
	ops := g.Ops
	for i := st.OpStart; i < st.OpEnd; i++ {
		params += ops[i].ParamBytes
		acts += ops[i].ActBytes
	}
	static := AdamStateMultiplier * params / float64(st.TP)

	samplesPerReplica := float64(globalBatch) / (float64(numMicro) * float64(st.DP))
	inflight := numStages - stageIdx
	if inflight > numMicro {
		inflight = numMicro
	}
	if inflight < 1 {
		inflight = 1
	}
	actFactor := g.ActMemFactor
	if actFactor <= 0 {
		actFactor = 1
	}
	activation := actFactor * acts * samplesPerReplica * float64(inflight) / float64(st.TP)
	return static + activation
}

// PlanMemory reports the maximum per-GPU memory footprint across stages
// and whether the plan fits the device (within the usable fraction).
func PlanMemory(g *model.Graph, p *Plan, spec hw.GPU, globalBatch int) (maxBytes float64, fits bool) {
	n := len(p.Stages)
	for i, st := range p.Stages {
		m := StageMemoryBytes(g, st, globalBatch, p.NumMicrobatches, i, n)
		if m > maxBytes {
			maxBytes = m
		}
	}
	return maxBytes, maxBytes <= spec.MemBytes*MemoryReserveFraction
}
