package exec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

func testGraph(t *testing.T, name string) *model.Graph {
	t.Helper()
	g, err := model.BuildClustered(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// evenPipeline builds an s-stage pipeline whose stages split g's
// operators as evenly as possible, each on dp×tp GPUs.
func evenPipeline(g *model.Graph, s, dp, tp int) *parallel.Plan {
	stages := make([]parallel.StagePlan, 0, s)
	start := 0
	for i := 0; i < s; i++ {
		end := start + (len(g.Ops)-start)/(s-i)
		stages = append(stages, parallel.StagePlan{OpStart: start, OpEnd: end, DP: dp, TP: tp})
		start = end
	}
	return &parallel.Plan{Stages: stages, NumMicrobatches: parallel.DefaultMicrobatches(s)}
}

func evaluate(t *testing.T, e *Engine, g *model.Graph, p *parallel.Plan, typ string, gb int) Result {
	t.Helper()
	r, err := e.Evaluate(g, p, hw.MustLookup(typ), gb)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEngineDeterminism(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	p := parallel.PureDP(g, 4)
	a := evaluate(t, NewEngine(42), g, p, "A40", 128)
	b := evaluate(t, NewEngine(42), g, p, "A40", 128)
	if a.IterTime != b.IterTime || a.Throughput != b.Throughput {
		t.Fatal("engine is not deterministic under a fixed seed")
	}
	c := evaluate(t, NewEngine(43), g, p, "A40", 128)
	if c.IterTime == a.IterTime {
		t.Fatal("different seeds should perturb measurements")
	}
}

// TestEngineFingerprintPinned pins what every perfdb column key embeds:
// an engine of one seed must hash to the same fingerprint in every
// version, or every store on disk goes cold. The reflect check keeps
// Engine free of exported fields, so that nothing but its seed can tell
// two engines apart.
func TestEngineFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{0, "2535569669983925a884cfce2bdb817e"},
		{7, "8163ad1b340f8a7f8bcd7555e20f5fef"},
		{42, "53012556445e56d5017f19217823bff0"},
	} {
		if got := NewEngine(c.seed).Fingerprint(); got != c.want {
			t.Errorf("seed %d: fingerprint %s, want %s", c.seed, got, c.want)
		}
	}
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Engine has an exported field %s", f.Name)
		}
	}
}

func TestThroughputIterTimeConsistent(t *testing.T) {
	g := testGraph(t, "WRes-1B")
	p := parallel.PureDP(g, 2)
	r := evaluate(t, NewEngine(1), g, p, "A40", 256)
	if math.Abs(r.Throughput*r.IterTime-256) > 1e-6 {
		t.Errorf("throughput × iterTime = %v, want 256", r.Throughput*r.IterTime)
	}
}

func TestOOMReported(t *testing.T) {
	g := testGraph(t, "GPT-2.6B")
	r := evaluate(t, NewEngine(1), g, parallel.PureDP(g, 4), "V100", 128)
	if r.Fits {
		t.Fatal("GPT-2.6B DP4 should OOM on V100")
	}
	if r.IterTime != 0 || r.Throughput != 0 {
		t.Error("OOM results should carry no timings")
	}
	if r.MaxMem <= hw.MustLookup("V100").MemBytes {
		t.Error("reported footprint should exceed device memory")
	}
}

func TestDPScalingSublinear(t *testing.T) {
	// §2.2: throughput scales sub-linearly with GPU count.
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	t1 := evaluate(t, e, g, parallel.PureDP(g, 1), "A40", 128).Throughput
	t8 := evaluate(t, e, g, parallel.PureDP(g, 8), "A40", 128).Throughput
	if t8 <= t1 {
		t.Fatal("8 GPUs should beat 1")
	}
	if t8 >= 8*t1 {
		t.Errorf("scaling should be sub-linear: %v vs 8×%v", t8, t1)
	}
	if t8 < 3*t1 {
		t.Errorf("scaling collapse: %v vs %v", t8, t1)
	}
}

func TestFasterGPUFaster(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	p := parallel.PureTP(g, 4)
	v100 := evaluate(t, e, g, p, "V100", 128).Throughput
	h100 := evaluate(t, e, g, p, "H100", 128).Throughput
	if h100 <= v100 {
		t.Errorf("H100 (%v) should beat V100 (%v)", h100, v100)
	}
}

func TestInterconnectMatters(t *testing.T) {
	// Fig. 2(c): the same 2 GPUs linked by PCIe (one node) vs InfiniBand
	// (two nodes) perform differently for communication-heavy plans.
	g := testGraph(t, "MoE-1.3B")
	e := NewEngine(42)
	p := parallel.PureDP(g, 2)
	spec := hw.MustLookup("A40")
	intra, err := e.EvaluateMeasured(e, g, p, spec, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := e.EvaluateMeasured(e, g, p, spec, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Throughput >= intra.Throughput {
		t.Errorf("cross-node DP (%v) should lose to intra-node (%v)", inter.Throughput, intra.Throughput)
	}
}

func TestGPUTimeBreakdownAccounting(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	p := evenPipeline(g, 2, 2, 1)
	r := evaluate(t, e, g, p, "A40", 128)
	total := r.ComputeGPUTime + r.CommGPUTime + r.IdleGPUTime
	want := r.IterTime * float64(p.TotalGPUs())
	if math.Abs(total-want)/want > 1e-6 {
		t.Errorf("breakdown sums to %v, iterTime×GPUs = %v", total, want)
	}
	if r.ComputeGPUTime <= 0 || r.CommGPUTime <= 0 {
		t.Error("compute and comm GPU time should both be positive")
	}
}

func TestWideDPInflatesCommGPUTime(t *testing.T) {
	// Fig. 18: increasing DP has little effect on compute GPU time but
	// greatly increases communication GPU time.
	g := testGraph(t, "GPT-2.6B")
	e := NewEngine(42)
	r4 := evaluate(t, e, g, parallel.PureDP(g, 4), "A40", 128)
	r8 := evaluate(t, e, g, parallel.PureDP(g, 8), "A40", 128)
	if !r4.Fits || !r8.Fits {
		t.Fatal("plans should fit A40")
	}
	computeGrowth := r8.ComputeGPUTime / r4.ComputeGPUTime
	commGrowth := r8.CommGPUTime / r4.CommGPUTime
	if commGrowth < 2*computeGrowth {
		t.Errorf("comm growth %v should far exceed compute growth %v", commGrowth, computeGrowth)
	}
}

func TestStageTimesReported(t *testing.T) {
	g := testGraph(t, "WRes-1B")
	e := NewEngine(42)
	r := evaluate(t, e, g, evenPipeline(g, 4, 1, 1), "A40", 256)
	if len(r.StageTime) != 4 {
		t.Fatalf("StageTime has %d entries", len(r.StageTime))
	}
	for i, st := range r.StageTime {
		if st <= 0 {
			t.Errorf("stage %d time = %v", i, st)
		}
	}
}

func TestKernelTimeProperties(t *testing.T) {
	e := NewEngine(42)
	spec := hw.MustLookup("A100")
	op := model.Op{Kind: model.KindMLP, FLOPs: 1e11, Bytes: 1e8}
	base := e.KernelTime(op, spec, 16, 1)
	if base <= 0 {
		t.Fatal("kernel time must be positive")
	}
	// More samples, more time.
	if e.KernelTime(op, spec, 32, 1) <= base {
		t.Error("doubling samples should increase kernel time")
	}
	// TP slicing reduces per-GPU time (thin-slice efficiency loss keeps
	// it above the ideal halving).
	tp2 := e.KernelTime(op, spec, 16, 2)
	if tp2 >= base {
		t.Error("TP slicing should reduce per-GPU kernel time")
	}
	if tp2 < base/2*0.9 {
		t.Errorf("TP halving too perfect: %v vs %v (efficiency loss missing)", tp2, base)
	}
	if e.KernelTime(op, spec, 0, 1) != 0 {
		t.Error("zero samples should cost zero")
	}
}

func TestShapeEfficiencyBounds(t *testing.T) {
	e := NewEngine(42)
	g := hw.MustLookup("H100")
	f := func(work float64) bool {
		eff := e.shapeEfficiency(g, math.Abs(work))
		return eff >= effFloor && eff <= effCeiling
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if e.shapeEfficiency(g, 1e15) <= e.shapeEfficiency(g, 1e6) {
		t.Error("efficiency should grow with work size")
	}
}

func TestMeasureStageGradSyncOnlyWithDP(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	spec := hw.MustLookup("A40")
	st := parallel.StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 1, TP: 2}
	if m := e.MeasureStage(g, st, spec, 16, 2); m.GradSync != 0 {
		t.Error("TP-only stage should have no gradient sync")
	}
	st = parallel.StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 2, TP: 1}
	if m := e.MeasureStage(g, st, spec, 16, 2); m.GradSync <= 0 {
		t.Error("DP stage must pay gradient sync")
	}
}

func TestStragglerGrowsWithGroup(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	spec := hw.MustLookup("A40")
	m1 := e.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 4, DP: 1, TP: 1}, spec, 16, 2)
	m8 := e.MeasureStage(g, parallel.StagePlan{OpStart: 0, OpEnd: 4, DP: 8, TP: 1}, spec, 16, 2)
	if m1.Straggler != 1 {
		t.Errorf("single GPU straggler = %v", m1.Straggler)
	}
	if m8.Straggler <= m1.Straggler {
		t.Error("larger groups should straggle more")
	}
}

func TestPipelineWavefrontBalancedApproximation(t *testing.T) {
	// For balanced stages, the wavefront should approximate
	// fill + (B−1) × bottleneck.
	e := NewEngine(42)
	g := testGraph(t, "GPT-1.3B")
	stage := []float64{1.0, 1.0, 1.0, 1.0}
	p2p := []float64{0, 0, 0, 0}
	got := e.pipelineWavefront(g, stage, p2p, 16, 0) // no noise: isolate the recurrence
	want := 4.0 + 15.0*1.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("wavefront = %v, want %v", got, want)
	}
}

func TestPipelineWavefrontBottleneckDominates(t *testing.T) {
	e := NewEngine(42)
	g := testGraph(t, "GPT-1.3B")
	balanced := e.pipelineWavefront(g, []float64{1, 1}, []float64{0, 0}, 8, 0)
	skewed := e.pipelineWavefront(g, []float64{0.5, 1.5}, []float64{0, 0}, 8, 0)
	// Equal total work, but imbalance costs: 1.5-bottleneck pipeline is
	// strictly slower (§3.2's load-balancing observation).
	if skewed <= balanced {
		t.Errorf("imbalanced pipeline (%v) should be slower than balanced (%v)", skewed, balanced)
	}
}

func TestValidationErrors(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	if _, err := e.Evaluate(g, &parallel.Plan{}, hw.MustLookup("A40"), 128); err == nil {
		t.Error("empty plan should error")
	}
	if _, err := e.Evaluate(g, parallel.PureDP(g, 2), hw.MustLookup("A40"), 0); err == nil {
		t.Error("zero batch should error")
	}
}

func TestDirectMeasureCost(t *testing.T) {
	g := testGraph(t, "GPT-1.3B")
	e := NewEngine(42)
	p := parallel.PureDP(g, 4)
	r := evaluate(t, e, g, p, "A40", 128)
	cost := DirectMeasureCost(r, p, 3)
	if math.Abs(cost-r.IterTime*4*4) > 1e-9 {
		t.Errorf("cost = %v, want iterTime×(3+1)×4", cost)
	}
	if DirectMeasureCost(r, p, 0) != r.IterTime*2*4 {
		t.Error("trials floor of 1 not applied")
	}
}

func TestStageFitsMemoryConsistentWithPlanMemory(t *testing.T) {
	g := testGraph(t, "GPT-2.6B")
	spec := hw.MustLookup("V100")
	st := parallel.StagePlan{OpStart: 0, OpEnd: len(g.Ops), DP: 4, TP: 1}
	if StageFitsMemory(g, st, spec, 128, 4, 1) {
		t.Error("DP4 full-model stage should not fit V100")
	}
	st = parallel.StagePlan{OpStart: 0, OpEnd: len(g.Ops) / 2, DP: 1, TP: 2}
	if !StageFitsMemory(g, st, spec, 128, 8, 2) {
		t.Error("half-model TP2 stage should fit V100")
	}
}

// stageLoop is MeasureStageFromOps as it was before the row form: one
// left fold over the stage's own ops, then the finishing terms.
func stageLoop(e *Engine, g *model.Graph, st parallel.StagePlan, spec hw.GPU, gpusPerNode int, opAt func(i int) OpMeasure) StageMeasure {
	var m StageMeasure
	for i := st.OpStart; i < st.OpEnd; i++ {
		om := opAt(i)
		m.FwdCompute += om.Fwd
		m.ParamBytes += g.Ops[i].ParamBytes
		if om.TPComm != 0 {
			m.TPComm += om.TPComm
		}
	}
	m.BwdCompute = m.FwdCompute * BwdFactor
	m.Straggler = 1.0
	if group := st.GPUs(); group > 1 {
		m.Straggler = 1 + stragglerCoef*math.Log2(float64(group))
	}
	if st.DP > 1 {
		share := gpusPerNode / st.TP
		if share < 1 {
			share = 1
		}
		topo := hw.Topology{
			GPUType: spec.Name, Workers: st.DP,
			CrossNode: st.GPUs() > gpusPerNode, NICShare: share,
		}
		m.GradSync = e.CollectiveTime(&spec, hw.AllReduce, topo, m.ParamBytes/float64(st.TP))
	}
	return m
}

// bitsOf returns the bit patterns of m's fields, so that measurements
// compare bit for bit.
func bitsOf(m StageMeasure) [6]uint64 {
	return [6]uint64{
		math.Float64bits(m.FwdCompute), math.Float64bits(m.BwdCompute), math.Float64bits(m.TPComm),
		math.Float64bits(m.Straggler), math.Float64bits(m.GradSync), math.Float64bits(m.ParamBytes),
	}
}

// TestMeasureStageRowMatchesStageLoop holds the row fold to stageLoop,
// bit for bit: every start op of two models, every shape up to 16 GPUs,
// every end at once (with one end repeated), on two node packings.
func TestMeasureStageRowMatchesStageLoop(t *testing.T) {
	e := NewEngine(42)
	for _, name := range []string{"GPT-1.3B", "MoE-2.4B"} {
		g := testGraph(t, name)
		for _, typ := range []string{"A40", "V100"} {
			spec := hw.MustLookup(typ)
			for _, gpn := range []int{spec.GPUsPerNode, 1} {
				for gpus := 1; gpus <= 16; gpus *= 2 {
					for tp := 1; tp <= gpus; tp *= 2 {
						spr := 16 / float64(gpus/tp)
						opAt := func(i int) OpMeasure { return e.MeasureOp(g.Ops[i], spec, spr, tp, gpn) }
						for start := range len(g.Ops) {
							st := parallel.StagePlan{OpStart: start, DP: gpus / tp, TP: tp}
							ends := []int{start + 1}
							for end := start + 1; end <= len(g.Ops); end++ {
								ends = append(ends, end)
							}
							out := make([]StageMeasure, len(ends))
							e.MeasureStageRow(g, st, ends, spec, gpn, opAt, out)
							for k, end := range ends {
								st.OpEnd = end
								want := stageLoop(e, g, st, spec, gpn, opAt)
								if bitsOf(out[k]) != bitsOf(want) {
									t.Fatalf("%s %s gpn=%d %+v: row fold %+v, stage loop %+v", name, typ, gpn, st, out[k], want)
								}
								if one := e.MeasureStageFromOps(g, st, spec, 16, gpn, opAt); bitsOf(one) != bitsOf(want) {
									t.Fatalf("%s %s gpn=%d %+v: MeasureStageFromOps %+v, stage loop %+v", name, typ, gpn, st, one, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
