// Package model provides analytic operator graphs for the three model
// families the paper evaluates (Table 2): GPT-3, GShard MoE, and
// Wide-ResNet. Arena's planner and profiler consume only static per-operator
// information — FLOPs, memory traffic, parameter bytes, activation bytes
// (§3.3: "Arena calculates operator FLOPs and memory access from static
// information (e.g., shapes)") — so closed-form graphs built from standard
// transformer/conv arithmetic substitute exactly for XLA HLO analysis.
//
// All per-sample quantities are for the *forward* pass of one sample (one
// sequence for language models, one image for Wide-ResNet); training costs
// (backward ≈ 2× forward) are applied by the execution engine.
package model

import (
	"fmt"
	"math"
)

// OpKind classifies a (clustered) operator; kernel-efficiency jitter and
// tensor-parallel communication patterns are keyed on it.
type OpKind string

// Operator kinds appearing in the three model families.
const (
	KindEmbedding OpKind = "embedding"
	KindAttention OpKind = "attention"
	KindMLP       OpKind = "mlp"
	KindMoE       OpKind = "moe"
	KindConv      OpKind = "conv"
	KindHead      OpKind = "head"
	KindNorm      OpKind = "norm"
)

// Op is one (possibly pre-clustered) operator of a model graph. Quantities
// are per forward pass of a single sample unless noted.
type Op struct {
	Name string
	Kind OpKind

	FLOPs float64 // forward floating-point operations per sample
	Bytes float64 // forward memory traffic per sample (reads+writes)

	ParamBytes float64 // FP16 parameter bytes held by this operator
	ActBytes   float64 // output activation bytes per sample (stage-boundary P2P volume)

	// TPCommBytes is the per-sample volume all-reduced across the tensor-
	// parallel group during the forward pass when this operator is sharded
	// (Megatron-style: activations re-synchronized after row-parallel
	// matmuls). Backward incurs the mirrored volume. For MoE operators this
	// models the expert-parallel all-to-all instead.
	TPCommBytes float64

	// TPPrimitive is the collective used for intra-operator parallelism
	// (all-reduce for dense ops, all-to-all for MoE dispatch).
	TPPrimitive string

	// Shardable reports whether tensor/model parallelism can split this
	// operator. Embeddings and heads are shardable in practice; we keep
	// them shardable with their own comm volumes.
	Shardable bool
}

// Graph is a model's operator sequence together with workload metadata.
type Graph struct {
	Name    string  // e.g. "GPT-1.3B"
	Family  string  // "gpt", "moe", "wresnet"
	SeqLen  int     // tokens per sample (0 for vision models)
	Ops     []Op    // topological (sequential) operator order
	Nominal float64 // nominal parameter count (e.g. 1.3e9), for reporting

	// ActMemFactor scales per-operator boundary activations (ActBytes) to
	// the *live* activation footprint retained for the backward pass:
	// transformers keep Q/K/V projections, attention probabilities and MLP
	// intermediates (~5× the boundary tensor with selective
	// rematerialization), conv nets retain post-BN/ReLU maps (~2.5×).
	ActMemFactor float64
}

// ParamBytes returns total FP16 parameter bytes of the graph.
func (g *Graph) ParamBytes() float64 {
	var total float64
	for _, o := range g.Ops {
		total += o.ParamBytes
	}
	return total
}

// Params returns the total parameter count (ParamBytes / 2 for FP16).
func (g *Graph) Params() float64 { return g.ParamBytes() / 2 }

// FwdFLOPs returns total forward FLOPs per sample.
func (g *Graph) FwdFLOPs() float64 {
	var total float64
	for _, o := range g.Ops {
		total += o.FLOPs
	}
	return total
}

// Cluster merges the graph's operators into at most o contiguous clusters,
// balancing per-cluster forward FLOPs (the paper pre-clusters operators to
// control problem size, O = 16 in Alpa; §3.3 footnote). The partition is
// computed with dynamic programming minimizing the maximum cluster FLOPs,
// which keeps clusters as uniform as the layer structure allows. Cluster
// metadata is aggregated: FLOPs/bytes/params sum; ActBytes and TP fields
// take the values at the cluster boundary (its last operator).
func (g *Graph) Cluster(o int) *Graph {
	n := len(g.Ops)
	if o <= 0 || o >= n {
		cp := *g
		cp.Ops = append([]Op(nil), g.Ops...)
		return &cp
	}
	bounds := balancedPartition(g.Ops, o)
	clustered := make([]Op, 0, o)
	start := 0
	for ci, end := range bounds {
		merged := mergeOps(g.Ops[start:end], fmt.Sprintf("%s/cluster%d", g.Name, ci))
		clustered = append(clustered, merged)
		start = end
	}
	cp := *g
	cp.Ops = clustered
	return &cp
}

// balancedPartition returns the end indices (exclusive) of k contiguous
// groups of ops minimizing the maximum group FLOPs, via binary search on
// the bottleneck value with a greedy feasibility check.
func balancedPartition(ops []Op, k int) []int {
	n := len(ops)
	prefix := make([]float64, n+1)
	for i, op := range ops {
		prefix[i+1] = prefix[i] + op.FLOPs
	}
	var maxOp float64
	for _, op := range ops {
		maxOp = math.Max(maxOp, op.FLOPs)
	}
	lo, hi := maxOp, prefix[n]
	feasible := func(cap float64) bool {
		groups, sum := 1, 0.0
		for i := range ops {
			flops := ops[i].FLOPs
			if sum+flops > cap {
				groups++
				sum = 0
			}
			sum += flops
		}
		return groups <= k
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Greedy split at the found bottleneck; then pad boundaries so we emit
	// exactly k groups (bottleneck may allow fewer).
	var bounds []int
	sum := 0.0
	for i, op := range ops {
		if sum+op.FLOPs > hi && len(bounds) < k-1 {
			bounds = append(bounds, i)
			sum = 0
		}
		sum += op.FLOPs
	}
	// Force exactly k groups by splitting the largest remaining groups.
	for len(bounds) < k-1 {
		bounds = splitLargest(ops, bounds)
	}
	return append(bounds, n)
}

// splitLargest splits the group with the largest FLOPs at its FLOPs
// midpoint, returning the new sorted bounds.
func splitLargest(ops []Op, bounds []int) []int {
	full := append(append([]int{0}, bounds...), len(ops))
	bestIdx, bestFlops := -1, -1.0
	for gi := 0; gi+1 < len(full); gi++ {
		if full[gi+1]-full[gi] < 2 {
			continue // cannot split a singleton
		}
		var f float64
		for _, op := range ops[full[gi]:full[gi+1]] {
			f += op.FLOPs
		}
		if f > bestFlops {
			bestFlops, bestIdx = f, gi
		}
	}
	if bestIdx < 0 {
		return bounds // nothing splittable; caller will emit fewer groups
	}
	lo, hi := full[bestIdx], full[bestIdx+1]
	var acc float64
	cut := lo + 1
	for i := lo; i < hi-1; i++ {
		acc += ops[i].FLOPs
		if acc >= bestFlops/2 {
			cut = i + 1
			break
		}
	}
	out := make([]int, 0, len(bounds)+1)
	inserted := false
	for _, b := range bounds {
		if !inserted && cut < b {
			out = append(out, cut)
			inserted = true
		}
		out = append(out, b)
	}
	if !inserted {
		out = append(out, cut)
	}
	return out
}

// mergeOps aggregates a contiguous operator run into one clustered Op.
func mergeOps(ops []Op, name string) Op {
	if len(ops) == 1 {
		merged := ops[0]
		return merged
	}
	merged := Op{Name: name, Kind: dominantKind(ops), Shardable: true}
	for _, o := range ops {
		merged.FLOPs += o.FLOPs
		merged.Bytes += o.Bytes
		merged.ParamBytes += o.ParamBytes
		merged.TPCommBytes += o.TPCommBytes
		if !o.Shardable {
			merged.Shardable = false
		}
	}
	last := ops[len(ops)-1]
	merged.ActBytes = last.ActBytes
	merged.TPPrimitive = dominantPrimitive(ops)
	return merged
}

func dominantKind(ops []Op) OpKind {
	flops := map[OpKind]float64{}
	for _, o := range ops {
		flops[o.Kind] += o.FLOPs
	}
	best, bestF := ops[0].Kind, -1.0
	for _, k := range []OpKind{KindMoE, KindConv, KindMLP, KindAttention, KindEmbedding, KindHead, KindNorm} {
		if f, ok := flops[k]; ok && f > bestF {
			best, bestF = k, f
		}
	}
	return best
}

func dominantPrimitive(ops []Op) string {
	vol := map[string]float64{}
	for _, o := range ops {
		if o.TPPrimitive != "" {
			vol[o.TPPrimitive] += o.TPCommBytes
		}
	}
	best, bestV := "all-reduce", -1.0
	for _, p := range []string{"all-reduce", "all-to-all", "all-gather"} {
		if v, ok := vol[p]; ok && v > bestV {
			best, bestV = p, v
		}
	}
	return best
}
