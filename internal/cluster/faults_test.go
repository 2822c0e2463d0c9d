package cluster

import (
	"reflect"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
)

func TestFailNodeReturnsVictimsAndShrinksCapacity(t *testing.T) {
	c := newCluster(t, hw.ClusterA())
	// j1 on A40 node 0 (best fit lands the first 2-GPU block there); j2
	// takes a second block, filling node 0 before spilling.
	if err := c.Alloc("j1", "A40", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc("j2", "A40", 2); err != nil {
		t.Fatal(err)
	}
	victims := c.FailNode("A40", 0)
	if len(victims) == 0 {
		t.Fatal("node 0 held allocations; FailNode returned none")
	}
	// The victims' GPUs park on the down node: freeing them returns no
	// capacity.
	for _, id := range victims {
		c.Free(id)
	}
	if got := c.FreeGPUs("A40"); got != 28 {
		t.Fatalf("free after failing node 0 and freeing its victims = %d, want 28", got)
	}
	// Victims' IDs come back sorted.
	want := append([]string(nil), victims...)
	sort.Strings(want)
	if !reflect.DeepEqual(victims, want) {
		t.Errorf("victims not sorted: %v", victims)
	}
	// Double-fail is a no-op.
	if again := c.FailNode("A40", 0); again != nil {
		t.Errorf("failing a down node returned victims: %v", again)
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
	if err := c.Alloc("j1", "A40", 2); err != nil { // node 0
		t.Fatal(err)
	}
	check("alloc", 30)
	victims := c.FailNode("A40", 0)
	// Node 0 down: its 0 free GPUs leave totalFree (already allocated).
	check("fail", 30)
	for _, id := range victims {
		c.Free(id)
	}
	// Freed blocks park on the down node: still not free capacity.
	check("free victims", 30)
	if c.CanAlloc("A40", 32) {
		t.Fatal("a down node's capacity must not be allocatable")
	}
	c.RecoverNode("A40", 0)
	check("recover", 32)
	if !c.CanAlloc("A40", 32) {
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
	if err := c.Alloc("j1", "A40", 2); err != nil {
		t.Fatal(err)
	}
	// The only possible home is node 1.
	c.SetSlow("A40", 1, 0.5)
	if f := c.SlowFactor("j1"); f != 0.5 {
		t.Fatalf("job placed on node %v? slow factor %v, want 0.5", 0, f)
	}
	// With node 1 occupied and node 0 down, a 4-GPU ask (both nodes) fails.
	c.Free("j1")
	if c.CanAlloc("A40", 4) {
		t.Fatal("multi-node alloc must not span a down node")
	}
}

func TestHealthyFirstPlacement(t *testing.T) {
	// Best-fit placement prefers healthy nodes: with node 0 a straggler,
	// a fresh allocation lands on a healthy node even though the historic
	// best-fit order would pick node 0 first.
	c := newCluster(t, hw.ClusterA())
	c.SetSlow("A40", 0, 0.3)
	if err := c.Alloc("j1", "A40", 2); err != nil {
		t.Fatal(err)
	}
	if f := c.SlowFactor("j1"); f != 1 {
		t.Fatalf("single-node alloc landed on the straggler (factor %v)", f)
	}
	// Multi-node: slow nodes are a last resort. 8 GPUs = 4 nodes out of
	// 16 with only node 0 slow → all healthy.
	if err := c.Alloc("j2", "A40", 8); err != nil {
		t.Fatal(err)
	}
	if f := c.SlowFactor("j2"); f != 1 {
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
	if err := small.Alloc("j3", "A10", 2); err != nil {
		t.Fatalf("degraded capacity must still be usable: %v", err)
	}
	if f := small.SlowFactor("j3"); f != 0.4 {
		t.Fatalf("factor %v, want 0.4", f)
	}
	small.ClearSlow("A10", 0)
	if f := small.SlowFactor("j3"); f != 1 {
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
	if err := c.Alloc("j1", "A40", 4); err != nil { // nodes 0+1
		t.Fatal(err)
	}
	if f := c.SlowFactor("j1"); f != 0.2 {
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
