package cluster

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/sjtu-epcc/arena/internal/hw"
)

func newCluster(t *testing.T, spec hw.ClusterSpec) *Cluster {
	t.Helper()
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterFullyFree(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	if c.TotalFree() != 64 || c.Utilization() != 0 {
		t.Fatalf("fresh cluster: free=%d util=%v", c.TotalFree(), c.Utilization())
	}
	if c.FreeGPUs("A40") != 32 || c.FreeGPUs("A10") != 32 {
		t.Fatal("per-region free counts wrong")
	}
	if c.FreeGPUs("H100") != 0 {
		t.Fatal("unknown region should report 0")
	}
}

// canAlloc reports whether n GPUs of the type are allocatable right now:
// the placement check Alloc makes before it takes nodes.
func canAlloc(c *Cluster, gpuType string, n int) bool {
	rs, ok := c.regions[gpuType]
	return ok && rs.canAlloc(n)
}

// grant allocates n GPUs of the type into a fresh buffer, failing the
// test when the placement does not fit.
func grant(t *testing.T, c *Cluster, gpuType string, n int) []Block {
	t.Helper()
	blocks, err := c.Alloc(nil, gpuType, n)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestAllocFreeRoundTrip(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	blocks := grant(t, c, "A40", 4)
	if c.FreeGPUs("A40") != 28 {
		t.Fatalf("free = %d", c.FreeGPUs("A40"))
	}
	c.Free(blocks)
	if c.FreeGPUs("A40") != 32 {
		t.Fatal("free did not restore capacity")
	}
	// Alloc appends to the buffer it is given.
	again, err := c.Alloc(blocks[:0], "A40", 4)
	if err != nil {
		t.Fatalf("capacity freed but not allocatable: %v", err)
	}
	if len(again) != 2 || &again[0] != &blocks[0] {
		t.Fatalf("4 A40 GPUs took %v, want 2 blocks in the given buffer", again)
	}
}

func TestAllocValidation(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	buf := []Block{{GPUType: "A10", Node: 3, GPUs: 1}}
	if got, err := c.Alloc(buf, "H100", 2); err == nil || len(got) != 1 {
		t.Errorf("unknown type should fail and leave the buffer: %v, %v", got, err)
	}
	if _, err := c.Alloc(buf, "A40", 0); err == nil {
		t.Error("zero GPUs should fail")
	}
	if got, err := c.Alloc(buf, "A40", 33); !errors.Is(err, ErrNoFit) || len(got) != 1 {
		t.Errorf("over-capacity should fail with ErrNoFit and leave the buffer: %v, %v", got, err)
	}
}

func TestMultiNodeNeedsFreeNodes(t *testing.T) {
	// A40 nodes hold 2 GPUs. Fill the region with singles (best-fit packs
	// two per node), then free one of each pair: every node ends with
	// exactly 1 free GPU — 16 free total, but no multi-node block.
	c := newCluster(t, hw.ClusterA())
	var grants [][]Block
	for i := 0; i < 32; i++ {
		grants = append(grants, grant(t, c, "A40", 1))
	}
	for i := 0; i < 32; i += 2 {
		c.Free(grants[i])
	}
	if c.FreeGPUs("A40") != 16 {
		t.Fatalf("free = %d", c.FreeGPUs("A40"))
	}
	if canAlloc(c, "A40", 4) {
		t.Fatal("no fully free nodes: 4-GPU block must be unallocatable")
	}
	if !canAlloc(c, "A40", 1) {
		t.Fatal("single GPUs should still fit")
	}
	if canAlloc(c, "A40", 2) {
		t.Fatal("no node has 2 free GPUs")
	}
}

func TestBestFitPreservesBigBlocks(t *testing.T) {
	// Allocating 1 GPU twice should pack both on the same node (best fit),
	// keeping other nodes fully free for multi-node jobs.
	c := newCluster(t, hw.ClusterA())
	grant(t, c, "A40", 1)
	grant(t, c, "A40", 1)
	// 15 of the 16 two-GPU nodes stay fully free.
	if !canAlloc(c, "A40", 30) {
		t.Fatal("best fit should pack both singles onto one node")
	}
}

func TestCanAllocWholeNodes(t *testing.T) {
	// Cluster-A's A40 region: 16 nodes × 2 GPUs.
	c := newCluster(t, hw.ClusterA())
	if !canAlloc(c, "A40", 32) {
		t.Fatal("a fresh region must fit its whole capacity")
	}
	grant(t, c, "A40", 16)
	if !canAlloc(c, "A40", 16) || canAlloc(c, "A40", 17) {
		t.Fatal("with 8 fully free nodes left, 16 GPUs fit and 17 do not")
	}
	// A tail short of a whole node still takes a node of its own.
	grant(t, c, "A40", 15)
	if c.FreeGPUs("A40") != 1 || canAlloc(c, "A40", 2) || !canAlloc(c, "A40", 1) {
		t.Fatalf("after 15 GPUs on 8 nodes: free %d, want 1 on one node", c.FreeGPUs("A40"))
	}
}

func TestHeterogeneousRegionsIndependent(t *testing.T) {
	c := newCluster(t, hw.ClusterSim())
	grant(t, c, "A100", 16)
	if c.FreeGPUs("A100") != 320-16 {
		t.Fatal("A100 region accounting wrong")
	}
	if c.FreeGPUs("A40") != 320 {
		t.Fatal("A40 region should be untouched")
	}
}

func TestV100SixteenGPUNodes(t *testing.T) {
	// V100 nodes hold 16 GPUs (Table 1): a 16-GPU job fits on one node.
	c := newCluster(t, hw.ClusterSim())
	grant(t, c, "V100", 16)
	// Every other V100 node stays whole.
	if free := c.FreeGPUs("V100"); !canAlloc(c, "V100", free) {
		t.Fatalf("whole-node alloc fragmented the region: %d free GPUs are not all on whole nodes", free)
	}
}

func TestUtilization(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	grant(t, c, "A40", 32)
	if got := c.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestAllocFreeProperty(t *testing.T) {
	// Property: any sequence of alloc/free pairs conserves capacity.
	spec := hw.ClusterA()
	f := func(sizes []uint8) bool {
		c, err := New(spec)
		if err != nil {
			return false
		}
		var grants [][]Block
		for _, raw := range sizes {
			n := 1 << (raw % 5) // 1..16
			if canAlloc(c, "A40", n) {
				blocks, err := c.Alloc(nil, "A40", n)
				if err != nil {
					return false
				}
				grants = append(grants, blocks)
			}
		}
		for _, blocks := range grants {
			c.Free(blocks)
		}
		return c.TotalFree() == 64 && canAlloc(c, "A40", 32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
