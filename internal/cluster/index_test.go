package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// retiredCluster is the placement the free-count index replaced, written
// out as it ran: CanAlloc, CanAllocHealthy and Alloc scan every node of
// the region (best fit in two passes, healthy nodes first), the fault
// operations write the node arrays directly, and the cluster keeps each
// job's blocks by ID, so FailNode scans them for its victims. FuzzClusterOps
// runs it beside the indexed Cluster as the oracle.
type retiredCluster struct {
	regions map[string]*retiredRegion
	allocs  map[string][]Block
}

type retiredRegion struct {
	index       int // the region's place in the spec, which Alloc records in each Block
	gpusPerNode int
	freePerNode []int
	totalFree   int
	down        []bool
	slow        []float64
}

func newRetired(spec hw.ClusterSpec) *retiredCluster {
	c := &retiredCluster{regions: map[string]*retiredRegion{}, allocs: map[string][]Block{}}
	for i, r := range spec.Regions {
		g := hw.MustLookup(r.GPUType)
		rs := &retiredRegion{
			index:       i,
			gpusPerNode: g.GPUsPerNode,
			freePerNode: make([]int, r.Nodes),
			down:        make([]bool, r.Nodes),
			slow:        make([]float64, r.Nodes),
		}
		for i := range rs.freePerNode {
			rs.freePerNode[i] = g.GPUsPerNode
		}
		rs.totalFree = r.Nodes * g.GPUsPerNode
		c.regions[r.GPUType] = rs
	}
	return c
}

func (c *retiredCluster) CanAlloc(gpuType string, n int) bool {
	rs, ok := c.regions[gpuType]
	if !ok || n < 1 || rs.totalFree < n {
		return false
	}
	if n <= rs.gpusPerNode {
		for i, free := range rs.freePerNode {
			if !rs.down[i] && free >= n {
				return true
			}
		}
		return false
	}
	needed := (n + rs.gpusPerNode - 1) / rs.gpusPerNode
	freeNodes := 0
	for i, free := range rs.freePerNode {
		if !rs.down[i] && free == rs.gpusPerNode {
			freeNodes++
		}
	}
	return freeNodes >= needed
}

func (c *retiredCluster) CanAllocHealthy(gpuType string, n int) bool {
	rs, ok := c.regions[gpuType]
	if !ok || n < 1 {
		return false
	}
	if n <= rs.gpusPerNode {
		for i, free := range rs.freePerNode {
			if !rs.down[i] && rs.slow[i] == 0 && free >= n {
				return true
			}
		}
		return false
	}
	needed := (n + rs.gpusPerNode - 1) / rs.gpusPerNode
	freeNodes := 0
	for i, free := range rs.freePerNode {
		if !rs.down[i] && rs.slow[i] == 0 && free == rs.gpusPerNode {
			freeNodes++
		}
	}
	return freeNodes >= needed
}

func (c *retiredCluster) Alloc(jobID, gpuType string, n int) error {
	if len(c.allocs[jobID]) != 0 {
		return fmt.Errorf("cluster: job %s already holds resources", jobID)
	}
	rs, ok := c.regions[gpuType]
	if !ok {
		return fmt.Errorf("cluster: no region for %s", gpuType)
	}
	if n < 1 {
		return fmt.Errorf("cluster: alloc of %d GPUs", n)
	}
	if !c.CanAlloc(gpuType, n) {
		return fmt.Errorf("cluster: cannot allocate %d×%s", n, gpuType)
	}
	var blocks []Block
	if n <= rs.gpusPerNode {
		best, bestFree := -1, rs.gpusPerNode+1
		for i, free := range rs.freePerNode {
			if !rs.down[i] && rs.slow[i] == 0 && free >= n && free < bestFree {
				best, bestFree = i, free
			}
		}
		if best < 0 {
			for i, free := range rs.freePerNode {
				if !rs.down[i] && free >= n && free < bestFree {
					best, bestFree = i, free
				}
			}
		}
		rs.freePerNode[best] -= n
		rs.totalFree -= n
		blocks = append(blocks, Block{GPUType: gpuType, Node: best, GPUs: n, region: rs.index})
	} else {
		needed := (n + rs.gpusPerNode - 1) / rs.gpusPerNode
		remaining := n
		for pass := 0; pass < 2 && needed > 0; pass++ {
			for i := 0; i < len(rs.freePerNode) && needed > 0; i++ {
				if rs.down[i] || rs.freePerNode[i] != rs.gpusPerNode {
					continue
				}
				if (pass == 0) != (rs.slow[i] == 0) {
					continue
				}
				take := rs.gpusPerNode
				if remaining < take {
					take = remaining
				}
				rs.freePerNode[i] -= take
				rs.totalFree -= take
				blocks = append(blocks, Block{GPUType: gpuType, Node: i, GPUs: take, region: rs.index})
				remaining -= take
				needed--
			}
		}
		if remaining != 0 {
			panic("cluster: allocation accounting mismatch")
		}
	}
	c.allocs[jobID] = blocks
	return nil
}

func (c *retiredCluster) Free(jobID string) {
	for _, b := range c.allocs[jobID] {
		rs := c.regions[b.GPUType]
		rs.freePerNode[b.Node] += b.GPUs
		if !rs.down[b.Node] {
			rs.totalFree += b.GPUs
		}
	}
	delete(c.allocs, jobID)
}

func (c *retiredCluster) FailNode(gpuType string, node int) []string {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.freePerNode) || rs.down[node] {
		return nil
	}
	rs.down[node] = true
	rs.totalFree -= rs.freePerNode[node]
	var victims []string
	for id, blocks := range c.allocs {
		for _, b := range blocks {
			if b.GPUType == gpuType && b.Node == node {
				victims = append(victims, id)
				break
			}
		}
	}
	sort.Strings(victims)
	return victims
}

func (c *retiredCluster) RecoverNode(gpuType string, node int) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.freePerNode) || !rs.down[node] {
		return
	}
	rs.down[node] = false
	rs.totalFree += rs.freePerNode[node]
}

func (c *retiredCluster) SetSlow(gpuType string, node int, factor float64) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.slow) {
		return
	}
	rs.slow[node] = factor
}

func (c *retiredCluster) ClearSlow(gpuType string, node int) {
	rs, ok := c.regions[gpuType]
	if !ok || node < 0 || node >= len(rs.slow) {
		return
	}
	rs.slow[node] = 0
}

// slowFactors are the straggler factors the fuzzer sets: real slowdowns,
// 1 and a negative factor (degraded nodes that SlowFactor ignores), 0
// (SetSlow back to healthy) and NaN (not equal to 0, so degraded).
var slowFactors = []float64{0.3, 0.5, 0.9, 1, -0.5, 0, math.NaN()}

// clusterOpsTypes are GPU types of the catalog with 2, 4, 8 and 16 GPUs
// per node.
var clusterOpsTypes = []string{"A40", "A10", "A100", "H100", "L20", "V100"}

// FuzzClusterOps decodes the input into a cluster of 1–3 regions of
// 1–300 nodes (2, 4, 8 or 16 GPUs per node) and a sequence of Alloc,
// Free, FailNode (its victims freed or left in place), RecoverNode,
// SetSlow and ClearSlow, and runs it on the indexed Cluster and on the
// retired node scans. The fuzzer holds each grant of the indexed
// Cluster, as the engine does, and finds a crash's victims among them.
// After every step both must have chosen the same nodes and report the
// same SlowFactor and the same victims, and on the region the step
// changed both must report the same FreeGPUs and answer CanAlloc and
// CanAllocHealthy alike for every n (see checkCan), and the index must
// hold exactly the up nodes by health and free count.
func FuzzClusterOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 0, 1, 0, 2, 3, 0, 4, 2, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 1, 0, 5, 2, 0, 40, 4, 1, 1, 1, 0, 7, 3, 0, 0, 9, 1, 0, 0, 0, 0, 3, 2, 1})
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	r := rng.New(29)
	for k := 0; k < seeds; k++ {
		in := make([]byte, 8+r.Intn(400))
		for i := range in {
			in[i] = byte(r.Uint64())
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		next16 := func() int {
			if len(data) < 2 {
				return next()
			}
			v := binary.LittleEndian.Uint16(data)
			data = data[2:]
			return int(v)
		}
		var spec hw.ClusterSpec
		avail := append([]string(nil), clusterOpsTypes...)
		for k := 1 + next()%3; k > 0; k-- {
			i := next() % len(avail)
			spec.Regions = append(spec.Regions, hw.Region{GPUType: avail[i], Nodes: 1 + next16()%300})
			avail = append(avail[:i], avail[i+1:]...)
		}
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		old := newRetired(spec)
		for _, r := range spec.Regions {
			checkCan(t, -1, c, old, r)
		}
		// held is the indexed Cluster's grants, in allocation order.
		type grant struct {
			id     string
			blocks []Block
		}
		var held []grant
		for step := 0; len(data) > 0; step++ {
			reg := spec.Regions[next()%len(spec.Regions)]
			typ := reg.GPUType
			touched := reg // the region the step changes
			gpn := hw.MustLookup(typ).GPUsPerNode
			node := next16()%(reg.Nodes+2) - 1 // -1 and Nodes are out of range
			op := next() % 6
			switch op {
			case 0: // Alloc
				n := 1 + next()%(2*gpn)
				if next()%2 == 0 {
					n = 1 + next16()%(reg.Nodes*gpn+1)
				}
				id := fmt.Sprintf("j%d", step)
				blocks, errNew := c.Alloc(nil, typ, n)
				errOld := old.Alloc(id, typ, n)
				if (errNew == nil) != (errOld == nil) {
					t.Fatalf("step %d: Alloc(%s, %d) = %v, retired %v", step, typ, n, errNew, errOld)
				}
				if errNew != nil && !errors.Is(errNew, ErrNoFit) && n >= 1 {
					t.Fatalf("step %d: Alloc(%s, %d) = %v, want ErrNoFit", step, typ, n, errNew)
				}
				if !reflect.DeepEqual(blocks, old.allocs[id]) {
					t.Fatalf("step %d: Alloc(%s, %d) took %v, retired %v", step, typ, n, blocks, old.allocs[id])
				}
				if errNew == nil {
					held = append(held, grant{id, blocks})
				}
				if got, want := c.SlowFactor(blocks), retiredSlowFactor(old, id); got != want {
					t.Fatalf("step %d: SlowFactor(%s) = %v, retired %v", step, id, got, want)
				}
			case 1: // Free
				if len(held) > 0 {
					k := next() % len(held)
					for _, r := range spec.Regions {
						if r.GPUType == held[k].blocks[0].GPUType {
							touched = r
						}
					}
					c.Free(held[k].blocks)
					old.Free(held[k].id)
					held = append(held[:k], held[k+1:]...)
				}
			case 2: // FailNode
				up := c.FailNode(typ, node)
				want := old.FailNode(typ, node)
				var victims []string
				kept := held[:0:0]
				for _, g := range held {
					if up && slices.ContainsFunc(g.blocks, func(b Block) bool { return b.GPUType == typ && b.Node == node }) {
						victims = append(victims, g.id)
						continue
					}
					kept = append(kept, g)
				}
				sort.Strings(victims)
				if !reflect.DeepEqual(victims, want) {
					t.Fatalf("step %d: FailNode(%s, %d) hit %v, retired %v", step, typ, node, victims, want)
				}
				if next()%2 == 0 {
					for _, g := range held {
						if slices.Contains(victims, g.id) {
							c.Free(g.blocks)
							old.Free(g.id)
						}
					}
					held = kept
				}
			case 3:
				c.RecoverNode(typ, node)
				old.RecoverNode(typ, node)
			case 4:
				factor := slowFactors[next()%len(slowFactors)]
				c.SetSlow(typ, node, factor)
				old.SetSlow(typ, node, factor)
			case 5:
				c.ClearSlow(typ, node)
				old.ClearSlow(typ, node)
			}
			checkCan(t, step, c, old, touched)
			checkIndex(t, step, c.regions[touched.GPUType])
		}
	})
}

// checkCan compares the two clusters' FreeGPUs and both Can* answers on
// one region, for every n from 0 to one node past the region. n up to
// two nodes' worth and one past, and each whole-node count k's k·gpn and
// k·gpn+1, go to the retired scans. Any other n asks for ⌈n/gpn⌉ = k
// fully free nodes, as k·gpn does, and that many nodes hold at least n
// free GPUs, so the retired answers for n and k·gpn agree: n is checked
// against the index's own answers at k·gpn, which keeps the scans'
// quadratic cost off the bulk of the range.
func checkCan(t *testing.T, step int, c *Cluster, old *retiredCluster, r hw.Region) {
	t.Helper()
	typ := r.GPUType
	if got, want := c.FreeGPUs(typ), old.regions[typ].totalFree; got != want {
		t.Fatalf("step %d: FreeGPUs(%s) = %d, retired %d", step, typ, got, want)
	}
	gpn := hw.MustLookup(typ).GPUsPerNode
	for n := 0; n <= (r.Nodes+1)*gpn; n++ {
		ref := n
		refAlloc := func(typ string, n int) bool { return canAlloc(c, typ, n) }
		refHealthy := c.CanAllocHealthy
		if n <= 2*gpn+1 || n%gpn <= 1 {
			refAlloc, refHealthy = old.CanAlloc, old.CanAllocHealthy
		} else {
			ref = (n + gpn - 1) / gpn * gpn
		}
		if got, want := canAlloc(c, typ, n), refAlloc(typ, ref); got != want {
			t.Fatalf("step %d: CanAlloc(%s, %d) = %v, want %v (as at n = %d)", step, typ, n, got, want, ref)
		}
		if got, want := c.CanAllocHealthy(typ, n), refHealthy(typ, ref); got != want {
			t.Fatalf("step %d: CanAllocHealthy(%s, %d) = %v, want %v (as at n = %d)", step, typ, n, got, want, ref)
		}
	}
}

// checkIndex requires byFree to hold exactly the region's up nodes, each
// in the set of its health class and free count, with true counts.
func checkIndex(t *testing.T, step int, rs *regionState) {
	t.Helper()
	for h := range rs.byFree {
		for f, s := range rs.byFree[h] {
			pop := 0
			for _, w := range s.bits {
				pop += bits.OnesCount64(w)
			}
			if pop != s.n {
				t.Fatalf("step %d: %s set (class %d, %d free) counts %d, holds %d", step, rs.gpuType, h, f, s.n, pop)
			}
		}
	}
	for i, free := range rs.freePerNode {
		for h := range rs.byFree {
			for f, s := range rs.byFree[h] {
				in := s.bits[i>>6]&(1<<(i&63)) != 0
				want := !rs.down[i] && h == rs.class(i) && f == free
				if in != want {
					t.Fatalf("step %d: %s node %d (free %d, down %v, slow %v) in set (class %d, %d free) = %v", step, rs.gpuType, i, free, rs.down[i], rs.slow[i], h, f, in)
				}
			}
		}
	}
}

// retiredSlowFactor is Cluster.SlowFactor over the retired state.
func retiredSlowFactor(c *retiredCluster, jobID string) float64 {
	factor := 1.0
	for _, b := range c.allocs[jobID] {
		if s := c.regions[b.GPUType].slow[b.Node]; s > 0 && s < factor {
			factor = s
		}
	}
	return factor
}
