// Package cluster tracks runtime GPU-cluster state for the scheduler:
// typed homogeneous regions, per-node free maps indexed by free count and
// node health, and buddy-style locality-preserving allocation (§3.5: "to
// ensure job locality, Arena follows the buddy allocation rule").
//
// The cluster keeps node state only. A grant is the Blocks Alloc appends
// to its caller's buffer; the caller holds them and hands them back to
// Free and SlowFactor, so the cluster never looks a job up. Keeping one
// grant per job, and freeing it before taking another, is the caller's
// duty, as is finding the jobs whose blocks touch a node FailNode takes
// down.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/sjtu-epcc/arena/internal/hw"
)

// Cluster is the mutable allocation state over a static ClusterSpec.
type Cluster struct {
	spec    hw.ClusterSpec
	types   []string                // spec.GPUTypes(), computed once
	regions map[string]*regionState // by GPU type, for the by-type entry points
	list    []*regionState          // in spec order: a Block's region indexes it
}

// Block is one node's share of a grant: GPUs GPUs of node Node in the
// GPUType region. Alloc also records the region's index in the block,
// so Free and SlowFactor, which take blocks as Alloc made them, find
// the region without hashing its GPU type.
type Block struct {
	GPUType string
	Node    int
	GPUs    int

	region int // the region's index in Cluster.list
}

// ErrNoFit is Alloc's answer when the locality rule finds no placement
// for the request right now (fragmentation, or too little free capacity).
var ErrNoFit = errors.New("cluster: no placement fits")

// regionState is one typed region. Every write to a node's free count,
// down flag or slow factor goes through setNode, which keeps totalFree
// and the free-count index in step with them, so placement reads the
// index instead of scanning nodes.
type regionState struct {
	gpuType     string
	index       int // in Cluster.list
	gpusPerNode int
	freePerNode []int // free GPUs per node
	totalFree   int   // free GPUs on *up* nodes (down capacity is not free)

	// Fault state (internal/faults): down nodes are excluded from
	// allocation and from totalFree; slow[i] != 0 marks a degraded node
	// (a straggler whose achieved throughput is multiplied by that
	// factor when it lies in (0, 1)).
	down []bool
	slow []float64

	// byFree is the index: byFree[h][f] holds exactly the up nodes of
	// health class h (healthy: slow == 0; degraded: slow != 0) with f
	// free GPUs, f from 0 through gpusPerNode. Down nodes are in no set.
	byFree [2][]nodeSet
}

// The health classes of byFree, in placement preference order.
const (
	healthy = iota
	degraded
)

// nodeSet is a set of node indexes: a bitset and its population count.
type nodeSet struct {
	bits []uint64
	n    int
}

func (s *nodeSet) add(i int)    { s.bits[i>>6] |= 1 << (i & 63); s.n++ }
func (s *nodeSet) remove(i int) { s.bits[i>>6] &^= 1 << (i & 63); s.n-- }

// first returns the set's lowest node index, or -1 when it is empty.
func (s *nodeSet) first() int {
	for w, b := range s.bits {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// class returns node i's health class.
func (rs *regionState) class(i int) int {
	if rs.slow[i] != 0 {
		return degraded
	}
	return healthy
}

// setNode gives node i a new free count, down flag and slow factor,
// moving it between the index's sets and keeping totalFree the free
// count of the up nodes.
func (rs *regionState) setNode(i, free int, down bool, slow float64) {
	if !rs.down[i] {
		rs.byFree[rs.class(i)][rs.freePerNode[i]].remove(i)
		rs.totalFree -= rs.freePerNode[i]
	}
	rs.freePerNode[i], rs.down[i], rs.slow[i] = free, down, slow
	if !down {
		rs.byFree[rs.class(i)][free].add(i)
		rs.totalFree += free
	}
}

// fit returns the set of the fullest up nodes of health class h that
// still have n ≤ gpusPerNode free GPUs, or nil when no such node exists.
func (rs *regionState) fit(h, n int) *nodeSet {
	for f := n; f <= rs.gpusPerNode; f++ {
		if s := &rs.byFree[h][f]; s.n > 0 {
			return s
		}
	}
	return nil
}

// New builds an empty (fully free) cluster from a validated spec.
func New(spec hw.ClusterSpec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		spec:    spec,
		types:   spec.GPUTypes(),
		regions: map[string]*regionState{},
	}
	for i, r := range spec.Regions {
		g := hw.MustLookup(r.GPUType)
		rs := &regionState{
			gpuType:     r.GPUType,
			index:       i,
			gpusPerNode: g.GPUsPerNode,
			freePerNode: make([]int, r.Nodes),
			down:        make([]bool, r.Nodes),
			slow:        make([]float64, r.Nodes),
		}
		words := (r.Nodes + 63) / 64
		for h := range rs.byFree {
			rs.byFree[h] = make([]nodeSet, g.GPUsPerNode+1)
			for f := range rs.byFree[h] {
				rs.byFree[h][f].bits = make([]uint64, words)
			}
		}
		// Every node starts up, healthy and empty: in the index's
		// healthy set of gpusPerNode free GPUs.
		for i := range rs.freePerNode {
			rs.freePerNode[i] = g.GPUsPerNode
			rs.byFree[healthy][g.GPUsPerNode].add(i)
		}
		rs.totalFree = r.Nodes * g.GPUsPerNode
		c.regions[r.GPUType] = rs
		c.list = append(c.list, rs)
	}
	return c, nil
}

// GPUTypes returns the cluster's types, fastest first. The slice is
// computed once and shared by every caller: it is read-only.
func (c *Cluster) GPUTypes() []string { return c.types }

// TotalGPUs returns the cluster-wide GPU count.
func (c *Cluster) TotalGPUs() int { return c.spec.TotalGPUs() }

// FreeGPUs returns the free GPU count in one typed region (0 for unknown
// types).
func (c *Cluster) FreeGPUs(gpuType string) int {
	rs, ok := c.regions[gpuType]
	if !ok {
		return 0
	}
	return rs.totalFree
}

// TotalFree returns the cluster-wide free GPU count.
func (c *Cluster) TotalFree() int {
	total := 0
	for _, rs := range c.regions {
		total += rs.totalFree
	}
	return total
}

// Utilization returns the fraction of GPUs currently allocated.
func (c *Cluster) Utilization() float64 {
	total := c.TotalGPUs()
	if total == 0 {
		return 0
	}
	return 1 - float64(c.TotalFree())/float64(total)
}

// canAlloc reports whether n GPUs of the region are allocatable right
// now under the locality rule (without mutating state): one up node with
// n free GPUs when n fits a node, else enough fully free up nodes
// (rack-affine buddy blocks; a tail short of a whole node shares that
// node with nothing else).
func (rs *regionState) canAlloc(n int) bool {
	if n < 1 || rs.totalFree < n {
		return false
	}
	if n <= rs.gpusPerNode {
		return rs.fit(healthy, n) != nil || rs.fit(degraded, n) != nil
	}
	needed := (n + rs.gpusPerNode - 1) / rs.gpusPerNode
	return rs.byFree[healthy][rs.gpusPerNode].n+rs.byFree[degraded][rs.gpusPerNode].n >= needed
}

// CanAllocHealthy reports whether n GPUs of the type are allocatable
// right now under the locality rule on fully healthy nodes: up and not
// degraded. The straggler-routing policy uses it to check that a slow
// allocation has somewhere better to go before paying a migration.
func (c *Cluster) CanAllocHealthy(gpuType string, n int) bool {
	rs, ok := c.regions[gpuType]
	if !ok || n < 1 {
		return false
	}
	if n <= rs.gpusPerNode {
		return rs.fit(healthy, n) != nil
	}
	needed := (n + rs.gpusPerNode - 1) / rs.gpusPerNode
	return rs.byFree[healthy][rs.gpusPerNode].n >= needed
}

// Alloc reserves n GPUs of the type and appends the grant's blocks to
// buf, returning the extended buffer (buf unchanged on error). The
// caller holds the blocks; one grant per job, freed before the next
// (scale operations free first, then re-allocate — the
// checkpoint-resume path of §4). A job that fits one node takes the
// best fit: the fullest node that still fits, preserving big blocks,
// lowest index first. A larger one takes fully free nodes in index
// order. Both take healthy nodes before degraded ones, so placement
// avoids stragglers when it can. A request the locality rule cannot
// place now fails with ErrNoFit.
func (c *Cluster) Alloc(buf []Block, gpuType string, n int) ([]Block, error) {
	rs, ok := c.regions[gpuType]
	if !ok {
		return buf, fmt.Errorf("cluster: no region for %s", gpuType)
	}
	if n < 1 {
		return buf, fmt.Errorf("cluster: alloc of %d GPUs", n)
	}
	if !rs.canAlloc(n) {
		return buf, ErrNoFit
	}
	if n <= rs.gpusPerNode {
		s := rs.fit(healthy, n)
		if s == nil {
			s = rs.fit(degraded, n)
		}
		i := s.first()
		rs.setNode(i, rs.freePerNode[i]-n, false, rs.slow[i])
		return append(buf, Block{GPUType: gpuType, Node: i, GPUs: n, region: rs.index}), nil
	}
	buf = slices.Grow(buf, (n+rs.gpusPerNode-1)/rs.gpusPerNode)
	remaining := n
	for h := range rs.byFree {
		full := &rs.byFree[h][rs.gpusPerNode]
		for w := 0; w < len(full.bits) && remaining > 0; w++ {
			// b is the word as it was: taking a node clears its bit in
			// full.bits, not here.
			for b := full.bits[w]; b != 0 && remaining > 0; b &= b - 1 {
				i := w<<6 + bits.TrailingZeros64(b)
				take := min(rs.gpusPerNode, remaining)
				rs.setNode(i, rs.gpusPerNode-take, false, rs.slow[i])
				buf = append(buf, Block{GPUType: gpuType, Node: i, GPUs: take, region: rs.index})
				remaining -= take
			}
		}
	}
	if remaining != 0 {
		// canAlloc guaranteed feasibility; this is a programming error.
		panic("cluster: allocation accounting mismatch")
	}
	return buf, nil
}

// Free returns a grant's blocks. Blocks on down nodes return to the
// node's free map but not to totalFree — that capacity comes back only
// when the node recovers.
func (c *Cluster) Free(blocks []Block) {
	for _, b := range blocks {
		rs := c.list[b.region]
		rs.setNode(b.Node, rs.freePerNode[b.Node]+b.GPUs, rs.down[b.Node], rs.slow[b.Node])
	}
}

// FailNode marks a node down, removing its free capacity, and reports
// whether it was up. The jobs holding blocks on it are the victims the
// caller must preempt (each Free returns its blocks to the node's map,
// parked until recovery). Failing a node that is already down, or one
// out of range, is a no-op.
func (c *Cluster) FailNode(gpuType string, node int) bool {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.freePerNode) || rs.down[node] {
		return false
	}
	rs.setNode(node, rs.freePerNode[node], true, rs.slow[node])
	return true
}

// RecoverNode returns a down node's capacity to service. The caller must
// have preempted (freed) the node's victims at failure time, so the whole
// node is free again. Recovering an up node is a no-op.
func (c *Cluster) RecoverNode(gpuType string, node int) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.freePerNode) || !rs.down[node] {
		return
	}
	rs.setNode(node, rs.freePerNode[node], false, rs.slow[node])
}

// SetSlow marks a node as a straggler with the given throughput factor;
// ClearSlow ends the episode. Out-of-range targets are ignored.
func (c *Cluster) SetSlow(gpuType string, node int, factor float64) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.slow) {
		return
	}
	rs.setNode(node, rs.freePerNode[node], rs.down[node], factor)
}

// ClearSlow ends a node's straggler episode.
func (c *Cluster) ClearSlow(gpuType string, node int) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.slow) {
		return
	}
	rs.setNode(node, rs.freePerNode[node], rs.down[node], 0)
}

// SlowFactor returns a grant's achieved-throughput multiplier: the worst
// (minimum) straggler factor over the nodes its blocks occupy —
// synchronous training runs at the slowest worker's pace. 1 means
// healthy.
func (c *Cluster) SlowFactor(blocks []Block) float64 {
	factor := 1.0
	for _, b := range blocks {
		rs := c.list[b.region]
		if s := rs.slow[b.Node]; s > 0 && s < factor {
			factor = s
		}
	}
	return factor
}
