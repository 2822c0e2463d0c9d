package cluster

import (
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
)

func TestFailNodeShrinksCapacity(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	// j1 takes A40 node 0 (best fit lands the first 2-GPU block there);
	// j2 takes node 1.
	j1 := grant(t, c, "A40", 2)
	j2 := grant(t, c, "A40", 2)
	if j1[0].Node != 0 || j2[0].Node != 1 {
		t.Fatalf("blocks %v and %v, want nodes 0 and 1", j1, j2)
	}
	if !c.FailNode("A40", 0) {
		t.Fatal("failing an up node reported no change")
	}
	// The victim's GPUs park on the down node: freeing them returns no
	// capacity.
	c.Free(j1)
	if got := c.FreeGPUs("A40"); got != 28 {
		t.Fatalf("free after failing node 0 and freeing its victim = %d, want 28", got)
	}
	// Double-fail and out-of-range nodes are no-ops.
	if c.FailNode("A40", 0) || c.FailNode("A40", 16) || c.FailNode("A40", -1) || c.FailNode("H100", 0) {
		t.Error("failing a down, out-of-range or unknown node reported a change")
	}
}

func TestFailRecoverTotalFreeInvariant(t *testing.T) {
	// totalFree must equal the sum of free GPUs over *up* nodes at every
	// step of fail → free-victims → recover.
	c := newCluster(t, hw.ClusterA())
	check := func(stage string, wantA40 int) {
		t.Helper()
		if got := c.FreeGPUs("A40"); got != wantA40 {
			t.Fatalf("%s: A40 free = %d, want %d", stage, got, wantA40)
		}
	}
	check("fresh", 32)
	j1 := grant(t, c, "A40", 2) // node 0
	check("alloc", 30)
	c.FailNode("A40", 0)
	// Node 0 down: its 0 free GPUs leave totalFree (already allocated).
	check("fail", 30)
	c.Free(j1)
	// Freed blocks park on the down node: still not free capacity.
	check("free victims", 30)
	if canAlloc(c, "A40", 32) {
		t.Fatal("a down node's capacity must not be allocatable")
	}
	c.RecoverNode("A40", 0)
	check("recover", 32)
	if !canAlloc(c, "A40", 32) {
		t.Fatal("recovered capacity must be allocatable again")
	}
	// Recovering an up node is a no-op.
	c.RecoverNode("A40", 0)
	check("double recover", 32)
}

func TestDownNodesExcludedFromPlacement(t *testing.T) {
	spec := hw.ClusterSpec{Regions: []hw.Region{{GPUType: "A40", Nodes: 2}}}
	c := newCluster(t, spec)
	c.FailNode("A40", 0)
	j1 := grant(t, c, "A40", 2)
	// The only possible home is node 1.
	c.SetSlow("A40", 1, 0.5)
	if f := c.SlowFactor(j1); f != 0.5 {
		t.Fatalf("job placed on %v: slow factor %v, want 0.5", j1, f)
	}
	// With node 0 down, a 4-GPU ask (both nodes) fails.
	c.Free(j1)
	if canAlloc(c, "A40", 4) {
		t.Fatal("multi-node alloc must not span a down node")
	}
}

func TestHealthyFirstPlacement(t *testing.T) {
	// Best-fit placement prefers healthy nodes: with node 0 a straggler,
	// a fresh allocation lands on a healthy node even though the historic
	// best-fit order would pick node 0 first.
	c := newCluster(t, hw.ClusterA())
	c.SetSlow("A40", 0, 0.3)
	if f := c.SlowFactor(grant(t, c, "A40", 2)); f != 1 {
		t.Fatalf("single-node alloc landed on the straggler (factor %v)", f)
	}
	// Multi-node: slow nodes are a last resort. 8 GPUs = 4 nodes out of
	// 16 with only node 0 slow → all healthy.
	if f := c.SlowFactor(grant(t, c, "A40", 8)); f != 1 {
		t.Fatalf("multi-node alloc touched the straggler (factor %v)", f)
	}
	// When only the straggler remains, allocation degrades onto it rather
	// than failing.
	spec := hw.ClusterSpec{Regions: []hw.Region{{GPUType: "A10", Nodes: 1}}}
	small := newCluster(t, spec)
	small.SetSlow("A10", 0, 0.4)
	if small.CanAllocHealthy("A10", 2) {
		t.Fatal("no healthy capacity, CanAllocHealthy must say so")
	}
	j3, err := small.Alloc(nil, "A10", 2)
	if err != nil {
		t.Fatalf("degraded capacity must still be usable: %v", err)
	}
	if f := small.SlowFactor(j3); f != 0.4 {
		t.Fatalf("factor %v, want 0.4", f)
	}
	small.ClearSlow("A10", 0)
	if f := small.SlowFactor(j3); f != 1 {
		t.Fatalf("episode cleared but factor still %v", f)
	}
}

func TestSlowFactorIsWorstOverBlocks(t *testing.T) {
	// Synchronous training paces at the slowest worker: a job spanning a
	// 0.6x and a 0.2x node runs at 0.2x.
	c := newCluster(t, hw.ClusterA())
	for i := 0; i < 16; i++ {
		c.SetSlow("A40", i, 0.6)
	}
	c.SetSlow("A40", 1, 0.2)
	if f := c.SlowFactor(grant(t, c, "A40", 4)); f != 0.2 { // nodes 0+1
		t.Fatalf("factor %v, want the worst block's 0.2", f)
	}
}

func TestCanAllocHealthyRequiresCleanNodes(t *testing.T) {
	spec := hw.ClusterSpec{Regions: []hw.Region{{GPUType: "A40", Nodes: 2}}}
	c := newCluster(t, spec)
	if !c.CanAllocHealthy("A40", 4) {
		t.Fatal("fresh cluster is all-healthy")
	}
	c.SetSlow("A40", 0, 0.5)
	if c.CanAllocHealthy("A40", 4) {
		t.Fatal("a straggler node is not healthy capacity")
	}
	if !c.CanAllocHealthy("A40", 2) {
		t.Fatal("node 1 is still healthy")
	}
	c.FailNode("A40", 1)
	if c.CanAllocHealthy("A40", 2) {
		t.Fatal("a down node is not healthy capacity")
	}
	if c.CanAllocHealthy("H100", 1) {
		t.Fatal("unknown region")
	}
}
