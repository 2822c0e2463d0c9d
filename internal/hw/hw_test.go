package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogCompleteness(t *testing.T) {
	want := []string{"H100", "L20", "A100", "A40", "A10", "V100"}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(cat), len(want))
	}
	for _, name := range want {
		g, ok := cat[name]
		if !ok {
			t.Fatalf("missing GPU %s", name)
		}
		if g.PeakFLOPS <= 0 || g.MemBandwidth <= 0 || g.MemBytes <= 0 {
			t.Errorf("%s has non-positive specs: %+v", name, g)
		}
		if g.GPUsPerNode < 1 {
			t.Errorf("%s GPUsPerNode = %d", name, g.GPUsPerNode)
		}
		if g.IntraLink.Beta <= 0 || g.InterLink.Beta <= 0 {
			t.Errorf("%s has invalid links", name)
		}
	}
}

func TestCatalogTable1Shapes(t *testing.T) {
	// Table 1 invariants that matter to the experiments.
	h100 := MustLookup("H100")
	if h100.GPUsPerNode != 8 || h100.MemBytes != 80*GiB {
		t.Errorf("H100 spec mismatch: %+v", h100)
	}
	v100 := MustLookup("V100")
	if v100.GPUsPerNode != 16 {
		t.Errorf("V100 should have 16 GPUs/node (Table 1), got %d", v100.GPUsPerNode)
	}
	a10 := MustLookup("A10")
	if a10.MemBytes != 24*GiB {
		t.Errorf("A10 should have 24 GB, got %v", a10.MemBytes/GiB)
	}
	// NVLink-equipped parts (Table 1 dagger) must have faster intra links
	// than the PCIe parts.
	a100, a40 := MustLookup("A100"), MustLookup("A40")
	if a100.IntraLink.Beta <= a40.IntraLink.Beta {
		t.Error("A100 NVLink should beat A40 PCIe")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("TPUv9"); err == nil {
		t.Fatal("expected error for unknown GPU")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup did not panic")
		}
	}()
	MustLookup("nope")
}

func TestTypeNamesCoverCatalog(t *testing.T) {
	names := TypeNames()
	if len(names) != len(Catalog()) {
		t.Fatalf("TypeNames has %d entries, catalog %d", len(names), len(Catalog()))
	}
	for _, n := range names {
		if _, err := Lookup(n); err != nil {
			t.Errorf("TypeNames contains unknown %q", n)
		}
	}
}

func TestRooflineRidge(t *testing.T) {
	// Below the ridge intensity PeakFLOPS/MemBandwidth a kernel is
	// memory-bound, above it compute-bound.
	g := MustLookup("A100")
	ridge := g.PeakFLOPS / g.MemBandwidth
	bytes := 1e9
	if got := g.IdealKernelTime(ridge/10*bytes, bytes); got != bytes/g.MemBandwidth {
		t.Errorf("below the ridge: %v, want the memory-bound %v", got, bytes/g.MemBandwidth)
	}
	if got := g.IdealKernelTime(ridge*10*bytes, bytes); got != ridge*10*bytes/g.PeakFLOPS {
		t.Errorf("above the ridge: %v, want the compute-bound %v", got, ridge*10*bytes/g.PeakFLOPS)
	}
}

func TestRooflineMonotone(t *testing.T) {
	// The roofline time never falls as a kernel's FLOPs or traffic grow.
	g := MustLookup("A40")
	f := func(a, b, bytes float64) bool {
		a, b, bytes = math.Abs(a), math.Abs(b), math.Abs(bytes)
		if a > b {
			a, b = b, a
		}
		return g.IdealKernelTime(a, bytes) <= g.IdealKernelTime(b, bytes) &&
			g.IdealKernelTime(bytes, a) <= g.IdealKernelTime(bytes, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdealKernelTime(t *testing.T) {
	g := MustLookup("A100")
	// Compute-bound op: time = flops/peak.
	flops, bytes := 1e12, 1e6
	want := flops / g.PeakFLOPS
	if got := g.IdealKernelTime(flops, bytes); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("compute-bound time %v, want %v", got, want)
	}
	// Memory-bound op: time = bytes/BW.
	flops, bytes = 1e6, 1e12
	want = bytes / g.MemBandwidth
	if got := g.IdealKernelTime(flops, bytes); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("memory-bound time %v, want %v", got, want)
	}
}

func TestLinkEffBandwidth(t *testing.T) {
	l := NVLink3
	if bw := l.EffBandwidth(1e12); bw < 0.99*l.Beta {
		t.Errorf("huge message should approach saturated bandwidth: %v < %v", bw, l.Beta)
	}
	small := l.EffBandwidth(float64(l.EffCurveBytes))
	if math.Abs(small-l.Beta/2)/l.Beta > 0.01 {
		t.Errorf("half-bandwidth point mismatch: %v", small)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	l := ConnectX5
	prev := 0.0
	for v := 1024.0; v < 1e10; v *= 2 {
		cur := l.TransferTime(v)
		if cur <= prev {
			t.Fatalf("transfer time not monotone at %v bytes", v)
		}
		prev = cur
	}
}

// collective prices a collective on the topology's own GPU type, failing
// the test on an error.
func collective(t *testing.T, p Primitive, topo Topology, v float64) float64 {
	t.Helper()
	g := MustLookup(topo.GPUType)
	d, err := g.CollectiveTime(p, topo, v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCollectiveTimeSingleWorker(t *testing.T) {
	topo := Topology{GPUType: "A100", Workers: 1}
	if d := collective(t, AllReduce, topo, 1e9); d != 0 {
		t.Fatalf("1-worker all-reduce = %v; want 0", d)
	}
}

func TestCollectiveAllReduceTwiceAllGather(t *testing.T) {
	topo := Topology{GPUType: "A100", Workers: 4}
	v := 1e9
	ar := collective(t, AllReduce, topo, v)
	ag := collective(t, AllGather, topo, v)
	// Ring all-reduce = reduce-scatter + all-gather: ≈ 2× all-gather.
	if math.Abs(ar-2*ag)/ar > 0.05 {
		t.Errorf("all-reduce %v vs 2×all-gather %v", ar, 2*ag)
	}
}

func TestCollectiveCrossNodeSlower(t *testing.T) {
	intra := Topology{GPUType: "A100", Workers: 4, CrossNode: false}
	inter := Topology{GPUType: "A100", Workers: 4, CrossNode: true, NICShare: 1}
	v := 1e9
	if collective(t, AllReduce, inter, v) <= collective(t, AllReduce, intra, v) {
		t.Error("cross-node collective should be slower than NVLink-local")
	}
}

func TestNICShareSlowdown(t *testing.T) {
	base := Topology{GPUType: "A40", Workers: 8, CrossNode: true, NICShare: 1}
	shared := Topology{GPUType: "A40", Workers: 8, CrossNode: true, NICShare: 2}
	v := 1e9
	tb := collective(t, AllReduce, base, v)
	ts := collective(t, AllReduce, shared, v)
	if ts <= tb {
		t.Error("NIC sharing must slow the collective")
	}
	if ts > 2.5*tb {
		t.Errorf("share-2 slowdown too large: %v vs %v", ts, tb)
	}
}

func TestCollectiveVolumeMonotone(t *testing.T) {
	topo := Topology{GPUType: "V100", Workers: 8, CrossNode: false}
	prev := -1.0
	for v := 1e3; v <= 1e11; v *= 10 {
		cur := collective(t, AllReduce, topo, v)
		if cur <= prev {
			t.Fatalf("collective time not monotone at %v", v)
		}
		prev = cur
	}
}

func TestCollectiveNegativeVolume(t *testing.T) {
	g := MustLookup("A100")
	if _, err := g.CollectiveTime(AllReduce, Topology{GPUType: "A100", Workers: 2}, -5); err == nil {
		t.Fatal("expected error for negative volume")
	}
}

// TestCollectiveTimeUsesHeldSpec pins that the links come from the spec
// the caller holds, not from the topology's type name: an A40 ring
// priced on the V100 spec costs what a V100 ring does.
func TestCollectiveTimeUsesHeldSpec(t *testing.T) {
	v100 := MustLookup("V100")
	for _, cross := range []bool{false, true} {
		asA40 := Topology{GPUType: "A40", Workers: 4, CrossNode: cross, NICShare: 2}
		asV100 := asA40
		asV100.GPUType = "V100"
		got, err := v100.CollectiveTime(AllReduce, asA40, 1e8)
		if err != nil {
			t.Fatal(err)
		}
		if want := collective(t, AllReduce, asV100, 1e8); got != want {
			t.Errorf("cross=%v: %v on the held V100 spec, want %v", cross, got, want)
		}
	}
}

func TestP2PTime(t *testing.T) {
	g := MustLookup("A100")
	intra := P2PTime(g, 1e8, false)
	inter := P2PTime(g, 1e8, true)
	if inter <= intra {
		t.Error("inter-node P2P should be slower")
	}
}

func TestClusterSpecs(t *testing.T) {
	cases := []struct {
		spec ClusterSpec
		gpus int
	}{
		{ClusterA(), 64},
		{ClusterB(), 128 + 256},
		{ClusterSim(), 80*4 + 160*2 + 160*2 + 20*16},
		{ClusterBHomogeneous(), 128},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Errorf("%s: %v", c.spec.Name, err)
		}
		if got := c.spec.TotalGPUs(); got != c.gpus {
			t.Errorf("%s: %d GPUs, want %d", c.spec.Name, got, c.gpus)
		}
	}
	// Paper: the simulated cluster has 1,280 GPUs (§5.1).
	if ClusterSim().TotalGPUs() != 1280 {
		t.Errorf("simulated cluster should have 1280 GPUs, got %d", ClusterSim().TotalGPUs())
	}
}

func TestClusterValidateErrors(t *testing.T) {
	bad := ClusterSpec{Name: "x", Regions: []Region{{GPUType: "nope", Nodes: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown GPU type should fail validation")
	}
	dup := ClusterSpec{Name: "x", Regions: []Region{{GPUType: "A40", Nodes: 1}, {GPUType: "A40", Nodes: 2}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate region should fail validation")
	}
	empty := ClusterSpec{Name: "x"}
	if err := empty.Validate(); err == nil {
		t.Error("empty cluster should fail validation")
	}
}

func TestClusterGPUTypesOrdered(t *testing.T) {
	types := ClusterSim().GPUTypes()
	want := []string{"A100", "A40", "A10", "V100"}
	if len(types) != len(want) {
		t.Fatalf("types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v, want %v", types, want)
		}
	}
}

func TestRegionLookup(t *testing.T) {
	c := ClusterA()
	r, ok := c.Region("A40")
	if !ok || r.Nodes != 16 {
		t.Fatalf("A40 region = %+v, %v", r, ok)
	}
	if _, ok := c.Region("H100"); ok {
		t.Fatal("Cluster-A has no H100 region")
	}
}
