package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// validateGraph checks a zoo graph's structural invariants: it has
// operators, and every op has non-negative FLOPs, parameters and
// activations and positive memory traffic.
func validateGraph(g *Graph) error {
	if len(g.Ops) == 0 {
		return fmt.Errorf("graph %s has no operators", g.Name)
	}
	for i, o := range g.Ops {
		if o.FLOPs < 0 || o.Bytes <= 0 || o.ParamBytes < 0 || o.ActBytes < 0 {
			return fmt.Errorf("graph %s op %d (%s) has invalid quantities", g.Name, i, o.Name)
		}
	}
	return nil
}

func TestAllModelsBuild(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if err := validateGraph(g); err != nil {
			t.Error(err)
		}
	}
}

func TestParamsNearNominal(t *testing.T) {
	// Analytic parameter counts should land within 30% of the nominal
	// sizes of Table 2 (the paper's names are rounded marketing sizes).
	for _, name := range Names() {
		g, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		ratio := g.Params() / g.Nominal
		if ratio < 0.55 || ratio > 1.45 {
			t.Errorf("%s: %0.2fB params vs nominal %0.2fB (ratio %.2f)",
				name, g.Params()/1e9, g.Nominal/1e9, ratio)
		}
	}
}

func TestGPTConfigLadder(t *testing.T) {
	// Larger GPT variants must have strictly more params and FLOPs.
	var prevP, prevF float64
	for _, name := range GPTSizes() {
		g, _ := Build(name)
		if g.Params() <= prevP || g.FwdFLOPs() <= prevF {
			t.Errorf("%s does not grow monotonically", name)
		}
		prevP, prevF = g.Params(), g.FwdFLOPs()
	}
}

func TestMoEParamHeavy(t *testing.T) {
	// MoE models carry far more parameters per FLOP than dense GPT —
	// the property behind the paper's Case#2 overestimation (§2.2).
	gpt, _ := Build("GPT-1.3B")
	moe, _ := Build("MoE-1.3B")
	gptRatio := gpt.FwdFLOPs() / gpt.Params()
	moeRatio := moe.FwdFLOPs() / moe.Params()
	if moeRatio >= gptRatio/2 {
		t.Errorf("MoE FLOPs/param ratio %.2f should be well below GPT's %.2f", moeRatio, gptRatio)
	}
}

func TestWResLaterLayersLarger(t *testing.T) {
	// Fig. 6's caption: later Wide-ResNet layers are typically larger.
	g, _ := Build("WRes-1B")
	n := len(g.Ops)
	firstHalf, secondHalf := 0.0, 0.0
	for i, op := range g.Ops {
		if i < n/2 {
			firstHalf += op.FLOPs
		} else {
			secondHalf += op.FLOPs
		}
	}
	if secondHalf <= firstHalf {
		t.Errorf("later layers should carry more FLOPs: %v vs %v", secondHalf, firstHalf)
	}
}

func TestUnknownModelErrors(t *testing.T) {
	if _, err := Build("BERT-340M"); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := GPTConfigFor("GPT-175B"); err == nil {
		t.Fatal("expected error for unknown GPT size")
	}
	if _, err := MoEConfigFor("MoE-1T"); err == nil {
		t.Fatal("expected error for unknown MoE size")
	}
	if _, err := WResConfigFor("WRes-10B"); err == nil {
		t.Fatal("expected error for unknown WRes size")
	}
}

func TestClusterPreservesTotals(t *testing.T) {
	for _, name := range []string{"GPT-2.6B", "MoE-2.4B", "WRes-2B"} {
		g, _ := Build(name)
		c := g.Cluster(DefaultClusterSize)
		if len(c.Ops) != DefaultClusterSize {
			t.Errorf("%s clustered to %d ops, want %d", name, len(c.Ops), DefaultClusterSize)
		}
		if math.Abs(c.FwdFLOPs()-g.FwdFLOPs())/g.FwdFLOPs() > 1e-9 {
			t.Errorf("%s clustering changed FLOPs", name)
		}
		if math.Abs(c.ParamBytes()-g.ParamBytes())/g.ParamBytes() > 1e-9 {
			t.Errorf("%s clustering changed params", name)
		}
		if err := validateGraph(c); err != nil {
			t.Errorf("clustered %s invalid: %v", name, err)
		}
	}
}

func TestClusterBalance(t *testing.T) {
	// The DP-based clustering should produce clusters whose FLOPs are
	// reasonably uniform for a homogeneous layer stack like GPT.
	g, _ := Build("GPT-1.3B")
	c := g.Cluster(16)
	var minF, maxF float64 = math.MaxFloat64, 0
	for _, op := range c.Ops {
		minF = math.Min(minF, op.FLOPs)
		maxF = math.Max(maxF, op.FLOPs)
	}
	if maxF/minF > 4 {
		t.Errorf("cluster imbalance too high: max/min = %.2f", maxF/minF)
	}
}

func TestClusterDegenerateCases(t *testing.T) {
	g, _ := Build("GPT-0.76B")
	// o >= len(ops): unchanged copy.
	same := g.Cluster(len(g.Ops) + 10)
	if len(same.Ops) != len(g.Ops) {
		t.Error("oversized cluster count should not change the graph")
	}
	// o = 1: single merged op.
	one := g.Cluster(1)
	if len(one.Ops) != 1 {
		t.Fatalf("Cluster(1) gave %d ops", len(one.Ops))
	}
	if math.Abs(one.Ops[0].FLOPs-g.FwdFLOPs()) > 1 {
		t.Error("Cluster(1) lost FLOPs")
	}
}

func TestClusterPropertyCoverage(t *testing.T) {
	// Property: for any valid cluster count, totals are preserved and the
	// result has exactly min(o, len) ops.
	g, _ := Build("MoE-1.3B")
	f := func(raw uint8) bool {
		o := int(raw%20) + 1
		c := g.Cluster(o)
		wantLen := o
		if o >= len(g.Ops) {
			wantLen = len(g.Ops)
		}
		if len(c.Ops) != wantLen {
			return false
		}
		return math.Abs(c.FwdFLOPs()-g.FwdFLOPs())/g.FwdFLOPs() < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSizesTable2(t *testing.T) {
	gpt, err := BatchSizes("gpt")
	if err != nil || len(gpt) != 3 || gpt[0] != 128 {
		t.Errorf("gpt batches = %v, %v", gpt, err)
	}
	if _, err := BatchSizes("rnn"); err == nil {
		t.Error("unknown family should error")
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a, b := Workloads(), Workloads()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("workload counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Workloads() not deterministic")
		}
	}
	// Table 2: 5 WRes + 4 GPT + 5 MoE models × 3 batches = 42 workloads.
	if len(a) != 42 {
		t.Errorf("expected 42 workloads, got %d", len(a))
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	g, _ := Build("GPT-0.76B")
	g.Ops[3].Bytes = 0
	if err := validateGraph(g); err == nil {
		t.Fatal("zero-byte op should fail validation")
	}
	empty := &Graph{Name: "x"}
	if err := validateGraph(empty); err == nil {
		t.Fatal("empty graph should fail validation")
	}
}

func TestMustBuildClusteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBuildClustered("nope")
}

func TestActMemFactorSet(t *testing.T) {
	for _, name := range []string{"GPT-1.3B", "MoE-1.3B", "WRes-1B"} {
		g, _ := Build(name)
		if g.ActMemFactor <= 0 {
			t.Errorf("%s has no ActMemFactor", name)
		}
	}
}

func TestTPCommBytesPositive(t *testing.T) {
	for _, name := range Names() {
		g, _ := Build(name)
		for _, op := range g.Ops {
			if op.Shardable && op.TPCommBytes <= 0 {
				t.Errorf("%s op %s shardable but no TP comm volume", name, op.Name)
			}
		}
	}
}
