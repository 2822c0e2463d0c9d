package parallel

import (
	"testing"
	"testing/quick"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
)

func graph(t *testing.T, name string) *model.Graph {
	t.Helper()
	g, err := model.BuildClustered(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// evenPipeline builds an s-stage pipeline whose stages split g's
// operators as evenly as possible, each on dp×tp GPUs.
func evenPipeline(g *model.Graph, s, dp, tp int) *Plan {
	stages := make([]StagePlan, 0, s)
	start := 0
	for i := 0; i < s; i++ {
		end := start + (len(g.Ops)-start)/(s-i)
		stages = append(stages, StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp})
		start = end
	}
	return &Plan{Stages: stages, NumMicrobatches: DefaultMicrobatches(s)}
}

func TestPureDPShape(t *testing.T) {
	g := graph(t, "GPT-1.3B")
	p := PureDP(g, 4)
	if len(p.Stages) != 1 || p.TotalGPUs() != 4 {
		t.Fatalf("PureDP: %s", p)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.String() != "DP4" {
		t.Errorf("String() = %q", p.String())
	}
	if p.Degrees() != "DP4" {
		t.Errorf("Degrees() = %q", p.Degrees())
	}
}

func TestPureTPShape(t *testing.T) {
	g := graph(t, "GPT-1.3B")
	p := PureTP(g, 8)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.String() != "TP8" || p.Degrees() != "TP8" {
		t.Errorf("%q / %q", p.String(), p.Degrees())
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	g := graph(t, "GPT-1.3B")
	n := len(g.Ops)
	bad := &Plan{
		Stages: []StagePlan{
			{OpStart: 0, OpEnd: n / 2, DP: 1, TP: 1},
			{OpStart: n/2 + 1, OpEnd: n, DP: 1, TP: 1}, // gap
		},
		NumMicrobatches: 8,
	}
	if err := bad.Validate(g); err == nil {
		t.Fatal("gap in stage coverage should fail")
	}
	short := &Plan{
		Stages:          []StagePlan{{OpStart: 0, OpEnd: n - 1, DP: 1, TP: 1}},
		NumMicrobatches: 4,
	}
	if err := short.Validate(g); err == nil {
		t.Fatal("incomplete coverage should fail")
	}
	zero := &Plan{
		Stages:          []StagePlan{{OpStart: 0, OpEnd: n, DP: 0, TP: 1}},
		NumMicrobatches: 4,
	}
	if err := zero.Validate(g); err == nil {
		t.Fatal("zero DP should fail")
	}
	noMicro := PureDP(g, 2)
	noMicro.NumMicrobatches = 0
	if err := noMicro.Validate(g); err == nil {
		t.Fatal("zero microbatches should fail")
	}
	if err := (&Plan{}).Validate(g); err == nil {
		t.Fatal("empty plan should fail")
	}
}

func TestDPMemoryDominates(t *testing.T) {
	// §1 Case#2: static DP consumes the most memory among all parallelism.
	g := graph(t, "GPT-2.6B")
	spec := hw.MustLookup("A40")
	dpMem, _ := PlanMemory(g, PureDP(g, 4), spec, 128)
	tpMem, _ := PlanMemory(g, PureTP(g, 4), spec, 128)
	ppMem, _ := PlanMemory(g, evenPipeline(g, 4, 1, 1), spec, 128)
	if dpMem <= tpMem || dpMem <= ppMem {
		t.Errorf("DP memory %v should exceed TP %v and PP %v", dpMem, tpMem, ppMem)
	}
}

func TestTPShardsStaticMemory(t *testing.T) {
	g := graph(t, "GPT-2.6B")
	m1 := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 1, TP: 1}, 128, 4, 0, 1)
	m4 := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 1, TP: 4}, 128, 4, 0, 1)
	if m4 >= m1/2 {
		t.Errorf("TP4 memory %v should be well under TP1 %v", m4, m1)
	}
}

func TestGPT26BOOMOnV100DP(t *testing.T) {
	// Fig. 2(b) / Fig. 3(a): GPT-2.6B cannot run pure-DP on 32-40 GB parts.
	g := graph(t, "GPT-2.6B")
	for _, typ := range []string{"V100", "A100"} {
		spec := hw.MustLookup(typ)
		if _, fits := PlanMemory(g, PureDP(g, 4), spec, 128); fits {
			t.Errorf("GPT-2.6B pure DP should OOM on %s", typ)
		}
	}
	// A10 (24 GB) cannot hold its Adam state (≈42 GB static, replicated
	// on every DP rank) at any DP width.
	for n := 1; n <= 16; n *= 2 {
		if _, fits := PlanMemory(g, PureDP(g, n), hw.MustLookup("A10"), 128); fits {
			t.Errorf("GPT-2.6B DP%d should OOM on A10", n)
		}
	}
	// But an AP plan (PP2 × TP2) fits the same V100s.
	if _, fits := PlanMemory(g, evenPipeline(g, 2, 1, 2), hw.MustLookup("V100"), 128); !fits {
		t.Error("PP2xTP2 should fit GPT-2.6B on V100")
	}
}

func TestMemoryMonotoneInDP(t *testing.T) {
	// More DP replicas shrink per-replica activations but keep static
	// state constant: memory must be non-increasing in DP.
	g := graph(t, "WRes-1B")
	f := func(raw uint8) bool {
		dp := 1 << (raw % 4) // 1..8
		m1 := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: dp, TP: 1}, 256, 4, 0, 1)
		m2 := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: dp * 2, TP: 1}, 256, 4, 0, 1)
		return m2 <= m1+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEarlierStagesHoldMoreMicrobatches(t *testing.T) {
	// 1F1B: stage 0 keeps more in-flight microbatches than the last stage.
	g := graph(t, "GPT-1.3B")
	half := len(g.Ops) / 2
	first := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: half, DP: 1, TP: 1}, 128, 8, 0, 2)
	// Same operator range pretending it were the last stage:
	last := StageMemoryBytes(g, StagePlan{OpStart: 0, OpEnd: half, DP: 1, TP: 1}, 128, 8, 1, 2)
	if first <= last {
		t.Errorf("first stage %v should hold more memory than last %v", first, last)
	}
}

func TestPlanStringForms(t *testing.T) {
	g := graph(t, "GPT-1.3B")
	n := len(g.Ops)
	p := &Plan{
		Stages: []StagePlan{
			{OpStart: 0, OpEnd: n / 2, DP: 2, TP: 2},
			{OpStart: n / 2, OpEnd: n, DP: 1, TP: 4},
		},
		NumMicrobatches: 8,
	}
	if got := p.String(); got != "PP2[DP2xTP2,TP4]" {
		t.Errorf("String() = %q", got)
	}
	if got := p.Degrees(); got != "PP2,DP2,TP2" {
		t.Errorf("Degrees() = %q", got)
	}
	if got := p.TotalGPUs(); got != 8 {
		t.Errorf("TotalGPUs() = %d, want 8", got)
	}
	if got := evenPipeline(g, 4, 2, 1).Degrees(); got != "PP4,DP2" {
		t.Errorf("uniform pipeline Degrees() = %q", got)
	}
	var nilPlan *Plan
	if nilPlan.String() != "<empty>" {
		t.Error("nil plan String()")
	}
}

func TestDefaultMicrobatchesRule(t *testing.T) {
	// §5.1: number of microbatches = 4× the number of pipeline stages.
	for s := 1; s <= 8; s++ {
		if DefaultMicrobatches(s) != 4*s {
			t.Fatalf("DefaultMicrobatches(%d) = %d", s, DefaultMicrobatches(s))
		}
	}
}

func TestStagesKeyDistinguishesRanges(t *testing.T) {
	// Plan.String collapses operator ranges ("PP2[DP2,DP2]" for any
	// balanced split); the memo/dedup key must not.
	a := []StagePlan{{OpStart: 0, OpEnd: 4, DP: 2, TP: 1}, {OpStart: 4, OpEnd: 8, DP: 2, TP: 1}}
	b := []StagePlan{{OpStart: 0, OpEnd: 3, DP: 2, TP: 1}, {OpStart: 3, OpEnd: 8, DP: 2, TP: 1}}
	if StagesKey(a) == StagesKey(b) {
		t.Fatal("keys collide across different partitions")
	}
	if StagesKey(a) != StagesKey([]StagePlan{a[0], a[1]}) {
		t.Fatal("key is not a pure function of the stage values")
	}
	// Multi-digit fields must not concatenate ambiguously (e.g. 1,12 vs 11,2).
	c := []StagePlan{{OpStart: 1, OpEnd: 12, DP: 1, TP: 1}}
	d := []StagePlan{{OpStart: 11, OpEnd: 2, DP: 1, TP: 1}}
	if StagesKey(c) == StagesKey(d) {
		t.Fatal("ambiguous digit concatenation")
	}
}
