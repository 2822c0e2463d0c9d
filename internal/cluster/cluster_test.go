package cluster

import (
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

func TestAllocFreeRoundTrip(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	if err := c.Alloc("j1", "A40", 4); err != nil {
		t.Fatal(err)
	}
	if c.FreeGPUs("A40") != 28 {
		t.Fatalf("free = %d", c.FreeGPUs("A40"))
	}
	c.Free("j1")
	if c.FreeGPUs("A40") != 32 {
		t.Fatal("free did not restore capacity")
	}
	// Alloc refuses a job that still holds resources.
	if err := c.Alloc("j1", "A40", 4); err != nil {
		t.Fatalf("job still holds after free: %v", err)
	}
}

func TestDoubleAllocRejected(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	if err := c.Alloc("j1", "A40", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc("j1", "A40", 2); err == nil {
		t.Fatal("double alloc should fail")
	}
}

func TestAllocValidation(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	if err := c.Alloc("j", "H100", 2); err == nil {
		t.Error("unknown type should fail")
	}
	if err := c.Alloc("j", "A40", 0); err == nil {
		t.Error("zero GPUs should fail")
	}
	if err := c.Alloc("j", "A40", 33); err == nil {
		t.Error("over-capacity should fail")
	}
}

func TestMultiNodeNeedsFreeNodes(t *testing.T) {
	// A40 nodes hold 2 GPUs. Fill the region with singles (best-fit packs
	// two per node), then free one of each pair: every node ends with
	// exactly 1 free GPU — 16 free total, but no multi-node block.
	c := newCluster(t, hw.ClusterA())
	for i := 0; i < 32; i++ {
		if err := c.Alloc(jobID(i), "A40", 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i += 2 {
		c.Free(jobID(i))
	}
	if c.FreeGPUs("A40") != 16 {
		t.Fatalf("free = %d", c.FreeGPUs("A40"))
	}
	if c.CanAlloc("A40", 4) {
		t.Fatal("no fully free nodes: 4-GPU block must be unallocatable")
	}
	if !c.CanAlloc("A40", 1) {
		t.Fatal("single GPUs should still fit")
	}
	if c.CanAlloc("A40", 2) {
		t.Fatal("no node has 2 free GPUs")
	}
}

func TestBestFitPreservesBigBlocks(t *testing.T) {
	// Allocating 1 GPU twice should pack both on the same node (best fit),
	// keeping other nodes fully free for multi-node jobs.
	c := newCluster(t, hw.ClusterA())
	if err := c.Alloc("a", "A40", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc("b", "A40", 1); err != nil {
		t.Fatal(err)
	}
	// 15 of the 16 two-GPU nodes stay fully free.
	if !c.CanAlloc("A40", 30) {
		t.Fatal("best fit should pack both singles onto one node")
	}
}

func TestCanAllocWholeNodes(t *testing.T) {
	// Cluster-A's A40 region: 16 nodes × 2 GPUs.
	c := newCluster(t, hw.ClusterA())
	if !c.CanAlloc("A40", 32) {
		t.Fatal("a fresh region must fit its whole capacity")
	}
	if err := c.Alloc("big", "A40", 16); err != nil {
		t.Fatal(err)
	}
	if !c.CanAlloc("A40", 16) || c.CanAlloc("A40", 17) {
		t.Fatal("with 8 fully free nodes left, 16 GPUs fit and 17 do not")
	}
	// A tail short of a whole node still takes a node of its own.
	if err := c.Alloc("odd", "A40", 15); err != nil {
		t.Fatal(err)
	}
	if c.FreeGPUs("A40") != 1 || c.CanAlloc("A40", 2) || !c.CanAlloc("A40", 1) {
		t.Fatalf("after 15 GPUs on 8 nodes: free %d, want 1 on one node", c.FreeGPUs("A40"))
	}
}

func TestHeterogeneousRegionsIndependent(t *testing.T) {
	c := newCluster(t, hw.ClusterSim())
	if err := c.Alloc("j1", "A100", 16); err != nil {
		t.Fatal(err)
	}
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
	if err := c.Alloc("j", "V100", 16); err != nil {
		t.Fatal(err)
	}
	// Every other V100 node stays whole.
	if free := c.FreeGPUs("V100"); !c.CanAlloc("V100", free) {
		t.Fatalf("whole-node alloc fragmented the region: %d free GPUs are not all on whole nodes", free)
	}
}

func TestUtilization(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	if err := c.Alloc("j", "A40", 32); err != nil {
		t.Fatal(err)
	}
	if got := c.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestFreeUnknownJobNoop(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	c.Free("ghost")
	if c.TotalFree() != 64 {
		t.Fatal("freeing unknown job changed state")
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
		ids := make([]string, 0, len(sizes))
		for i, raw := range sizes {
			n := 1 << (raw % 5) // 1..16
			id := jobID(i)
			if c.CanAlloc("A40", n) {
				if err := c.Alloc(id, "A40", n); err != nil {
					return false
				}
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			c.Free(id)
		}
		return c.TotalFree() == 64 && c.CanAlloc("A40", 32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func jobID(i int) string {
	return "job-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}
