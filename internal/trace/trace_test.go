package trace

import (
	"fmt"
	"math"
	"testing"

	"github.com/sjtu-epcc/arena/internal/model"
)

func gen(t *testing.T, cfg Config) []Job {
	t.Helper()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := PhillySixHour(7, []string{"A40", "A10"})
	a, b := gen(t, cfg), gen(t, cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := gen(t, PhillySixHour(1, []string{"A40"}))
	b := gen(t, PhillySixHour(2, []string{"A40"}))
	same := 0
	for i := range a {
		if a[i].SubmitTime == b[i].SubmitTime {
			same++
		}
	}
	if same > len(a)/4 {
		t.Fatalf("%d/%d identical submit times across seeds", same, len(a))
	}
}

func TestJobFieldsValid(t *testing.T) {
	cfg := PhillySixHour(42, []string{"A40", "A10"})
	cfg.DeadlineFraction = 0.3
	jobs := gen(t, cfg)
	if len(jobs) != 244 {
		t.Fatalf("got %d jobs, want 244 (§5.2)", len(jobs))
	}
	ids := map[string]bool{}
	deadlines := 0
	for i, j := range jobs {
		if ids[j.ID] {
			t.Fatalf("duplicate job ID %s", j.ID)
		}
		ids[j.ID] = true
		if j.SubmitTime < 0 || j.SubmitTime > cfg.Duration {
			t.Errorf("job %d submit time %v outside trace", i, j.SubmitTime)
		}
		if j.Iterations < 20 {
			t.Errorf("job %d has %d iterations", i, j.Iterations)
		}
		if j.ReqGPUs < 1 || j.ReqGPUs > cfg.MaxGPUs || j.ReqGPUs&(j.ReqGPUs-1) != 0 {
			t.Errorf("job %d requests %d GPUs", i, j.ReqGPUs)
		}
		if j.ReqType != "A40" && j.ReqType != "A10" {
			t.Errorf("job %d requests type %s", i, j.ReqType)
		}
		if j.Priority < 1 || j.Priority > 3 {
			t.Errorf("job %d priority %d", i, j.Priority)
		}
		if j.Workload.GlobalBatch == 0 {
			t.Errorf("job %d has no workload", i)
		}
		if j.Deadline > 0 {
			deadlines++
		}
		if j.TotalSamples() != float64(j.Iterations)*float64(j.Workload.GlobalBatch) {
			t.Errorf("job %d sample accounting wrong", i)
		}
	}
	if deadlines == 0 || deadlines == len(jobs) {
		t.Errorf("deadline fraction not applied: %d/%d", deadlines, len(jobs))
	}
}

func TestSubmitTimesSorted(t *testing.T) {
	jobs := gen(t, PhillyWeek(42, []string{"A100", "A40", "A10", "V100"}, 1000))
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			t.Fatal("jobs not sorted by submit time")
		}
	}
}

func TestPhillyLoadShape(t *testing.T) {
	// Fig. 11: low-load prefix (first 3/7), heavy-load suffix (last 4/7).
	jobs := gen(t, PhillyWeek(42, []string{"A40"}, 2000))
	duration := 7.0 * 24 * 3600
	cut := duration * 3 / 7
	early, late := 0, 0
	for _, j := range jobs {
		if j.SubmitTime < cut {
			early++
		} else {
			late++
		}
	}
	if float64(early) > 0.35*float64(len(jobs)) {
		t.Errorf("prefix holds %d of %d jobs; want a clear minority", early, len(jobs))
	}
	if late <= early*2 {
		t.Errorf("suffix (%d) should dominate prefix (%d)", late, early)
	}
}

func TestPAILighterThanHelios(t *testing.T) {
	// PAI thins arrivals towards the end; its median arrival lands earlier.
	helios := gen(t, HeliosDay(42, []string{"A40"}, 500))
	pai := gen(t, PAIDay(42, []string{"A40"}, 500))
	medianOf := func(jobs []Job) float64 { return jobs[len(jobs)/2].SubmitTime }
	if medianOf(pai) >= medianOf(helios) {
		t.Error("PAI median arrival should precede Helios's")
	}
}

func TestLifespanScale(t *testing.T) {
	base := Config{Kind: Helios, Duration: 3600, NumJobs: 200, Seed: 9, GPUTypes: []string{"A40"}, MaxGPUs: 8}
	scaled := base
	scaled.LifespanScale = 2.5
	a, b := gen(t, base), gen(t, scaled)
	var sumA, sumB float64
	for i := range a {
		sumA += float64(a[i].Iterations)
		sumB += float64(b[i].Iterations)
	}
	ratio := sumB / sumA
	if ratio < 2.0 || ratio > 3.0 {
		t.Errorf("lifespan scaling ratio = %v, want ≈ 2.5", ratio)
	}
}

func TestCustomWorkloads(t *testing.T) {
	only := []model.Workload{{Model: "GPT-1.3B", GlobalBatch: 128}}
	cfg := Config{Kind: PAI, Duration: 3600, NumJobs: 50, Seed: 3, GPUTypes: []string{"A40"}, Workloads: only}
	for _, j := range gen(t, cfg) {
		if j.Workload.Model != "GPT-1.3B" {
			t.Fatalf("unexpected workload %v", j.Workload)
		}
	}
}

func TestDefaultWorkloadsMix(t *testing.T) {
	hasGiant := false
	for _, w := range DefaultWorkloads() {
		if w.Model == "MoE-27B" {
			t.Errorf("default mix should exclude %s (exceeds the 16-GPU cap)", w.Model)
		}
		if w.Model == "GPT-6.7B" {
			hasGiant = true
		}
	}
	if !hasGiant {
		t.Error("default mix should include AP-only giants (GPT-6.7B)")
	}
	// 13 models × 3 batch sizes.
	if len(DefaultWorkloads()) != 39 {
		t.Errorf("default mix has %d workloads, want 39", len(DefaultWorkloads()))
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := Generate(Config{Kind: Philly, Duration: 100, NumJobs: 10}); err == nil {
		t.Error("missing GPU types should error")
	}
}

// TestJobIDMatchesSprintf checks jobID against the fmt.Sprintf("%s-%04d")
// it replaced, for every Kind and indices across the padding boundaries.
func TestJobIDMatchesSprintf(t *testing.T) {
	kinds := []Kind{Philly, Helios, PAI, "", "a-very-long-custom-trace-kind-name-beyond-any-buffer"}
	is := []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 1_000_000, math.MaxInt32, math.MaxInt64, -1, -7, -99, -999, -1000, math.MinInt64}
	for _, k := range kinds {
		for _, i := range is {
			if got, want := jobID(k, i), fmt.Sprintf("%s-%04d", k, i); got != want {
				t.Errorf("jobID(%q, %d) = %q, fmt.Sprintf gives %q", k, i, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = jobID(Helios, 12345) }); n > 1 {
		t.Errorf("jobID allocates %v times per ID, want 1", n)
	}
}
