// Package trace synthesizes production-shaped job traces. The paper
// evaluates on three real traces — a two-week Philly trace (13k+ jobs,
// bursty, with a distinct low-load prefix and heavy-load suffix, §5.3),
// a moderate-load Helios Venus day, and a light-load PAI day — and adapts
// each record by randomly generating GPU count, type, model configuration
// and iteration count (§5.1). Since the raw traces are production data we
// cannot ship, this package reproduces their *load shapes* with seeded
// deterministic generators; schedulers are sensitive to arrival pattern
// and load level, not to trace identity.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// Kind selects a load shape.
type Kind string

// The three trace families of §5.1.
const (
	// Philly: three low-load days with transient bursts followed by four
	// days of intensive heavy load (Fig. 11's annotation).
	Philly Kind = "philly"
	// Helios: moderate, steady load (Fig. 13a/c).
	Helios Kind = "helios"
	// PAI: light load (Fig. 13b/d).
	PAI Kind = "pai"
)

// Job is one trace record: what the user submitted.
type Job struct {
	ID         string
	SubmitTime float64 // seconds from trace start
	Workload   model.Workload
	Iterations int // training iterations to completion

	// User-specified rigid request (what FCFS honours and the elastic
	// schedulers treat as the preference / starting point).
	ReqGPUs int
	ReqType string

	// Priority ∈ [1, P]; smaller launches earlier (§3.5).
	Priority int

	// Deadline, seconds from submission; 0 = none (§5.6 populates this).
	Deadline float64
}

// TotalSamples returns the job's total training work in samples.
func (j Job) TotalSamples() float64 {
	return float64(j.Iterations) * float64(j.Workload.GlobalBatch)
}

// Config drives trace synthesis.
type Config struct {
	Kind     Kind
	Duration float64 // trace span, seconds
	NumJobs  int
	Seed     uint64

	// GPUTypes are the cluster's types; job type requests draw from them.
	GPUTypes []string
	// MaxGPUs bounds per-job GPU requests (power of two). The paper's
	// profiling-cost example uses N = 16 (§2.3).
	MaxGPUs int

	// Workloads restricts the (model, batch) candidates; nil = a default
	// mix that excludes the >10B models (which need more than 16 GPUs of
	// most types and would never finish on the small testbeds).
	Workloads []model.Workload

	// LifespanScale multiplies iteration counts (Fig. 19's sweep).
	LifespanScale float64

	// DeadlineFraction is the share of jobs given deadlines (§5.6);
	// deadlines are set to a multiple of the job's ideal duration.
	DeadlineFraction float64

	// PriorityLevels is the number of priority queues P (§3.5; default 3).
	PriorityLevels int
}

// DefaultWorkloads returns the standard trace workload mix: every Table 2
// model up to 10B parameters with its family's batch sizes. The largest
// variants (GPT-6.7B, WRes-6.8B, MoE-10B) fit *no* GPU type with pure
// data parallelism — they are schedulable only through adaptive
// parallelism, the population where SP-aware scheduling fails hardest
// (§2.2). MoE-27B is excluded: it exceeds the 16-GPU per-job cap even
// with AP on most types.
func DefaultWorkloads() []model.Workload {
	var out []model.Workload
	include := map[string]bool{
		"WRes-0.5B": true, "WRes-1B": true, "WRes-2B": true, "WRes-4B": true, "WRes-6.8B": true,
		"GPT-0.76B": true, "GPT-1.3B": true, "GPT-2.6B": true, "GPT-6.7B": true,
		"MoE-0.69B": true, "MoE-1.3B": true, "MoE-2.4B": true, "MoE-10B": true,
	}
	for _, w := range model.Workloads() {
		if include[w.Model] {
			out = append(out, w)
		}
	}
	return out
}

// mix is a configuration's job mixture, computed once per trace: the
// workload candidates with their draw weights, and the priority weights.
type mix struct {
	workloads []model.Workload
	weights   []float64
	prio      []float64
}

// normalized validates the configuration and resolves its defaults,
// returning its mixture. Shared by Generate and Stream so both synthesis
// paths accept exactly the same configurations.
func (cfg Config) normalized() (Config, *mix, error) {
	if cfg.NumJobs <= 0 || cfg.Duration <= 0 {
		return cfg, nil, fmt.Errorf("trace: need positive NumJobs and Duration")
	}
	if len(cfg.GPUTypes) == 0 {
		return cfg, nil, fmt.Errorf("trace: no GPU types")
	}
	if cfg.MaxGPUs < 1 {
		cfg.MaxGPUs = 16
	}
	if cfg.LifespanScale <= 0 {
		cfg.LifespanScale = 1
	}
	if cfg.PriorityLevels < 1 {
		cfg.PriorityLevels = 3
	}
	m := &mix{workloads: cfg.Workloads, prio: priorityWeights(cfg.PriorityLevels)}
	if len(m.workloads) == 0 {
		m.workloads = DefaultWorkloads()
	}
	var err error
	if m.weights, err = workloadWeights(m.workloads); err != nil {
		return cfg, nil, err
	}
	return cfg, m, nil
}

// workloadWeights draws weights for the workload mix. Large-model
// clusters are dominated by large jobs: weight the workload draw by
// model size so the DP/AP mismatch the paper targets is well represented
// (§2.2's case studies all use ≥1.3B models).
func workloadWeights(workloads []model.Workload) ([]float64, error) {
	weights := make([]float64, len(workloads))
	for i, w := range workloads {
		g, err := model.Build(w.Model)
		if err != nil {
			return nil, err
		}
		weights[i] = math.Sqrt(g.Params() / 1e9)
	}
	return weights, nil
}

// synthesize draws one job's attributes (everything except its arrival
// time, which the caller supplies) from the stream r. Generate and the
// streaming Generator share this so a job's workload/size/priority
// mixture is identical across both synthesis paths.
func synthesize(r *rng.SplitMix64, cfg Config, m *mix, i int, submit float64) Job {
	w := m.workloads[weightedChoice(r, m.weights)]

	// Iterations: heavy-tailed, matching production duration skew.
	iters := int(r.LogNormalish(200, 2.6) * cfg.LifespanScale)
	if iters < 20 {
		iters = 20
	}

	// GPU request: production traces skew small; powers of two.
	reqGPUs := 1 << weightedChoice(r, []float64{0.18, 0.27, 0.28, 0.19, 0.08})
	for reqGPUs > cfg.MaxGPUs {
		reqGPUs /= 2
	}

	// Priority: most jobs are routine; few are expedited (§3.5).
	prio := 1 + weightedChoice(r, m.prio)

	j := Job{
		ID:         jobID(cfg.Kind, i),
		SubmitTime: submit,
		Workload:   w,
		Iterations: iters,
		ReqGPUs:    reqGPUs,
		ReqType:    cfg.GPUTypes[r.Intn(len(cfg.GPUTypes))],
		Priority:   prio,
	}
	if cfg.DeadlineFraction > 0 && r.Float64() < cfg.DeadlineFraction {
		// Deadline = 3-10× a nominal ideal runtime guess derived from
		// work volume (users pad their estimates generously).
		nominal := j.TotalSamples() / 100 // assume ~100 samples/s
		j.Deadline = nominal*r.Range(3, 10) + 3600
	}
	return j
}

// jobID returns the trace ID of job i of a kind: the bytes
// fmt.Sprintf("%s-%04d", kind, i) prints, built without fmt (IDs break
// ties and feed every digest, so they must not change).
func jobID(kind Kind, i int) string {
	var num [20]byte
	var buf [48]byte
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	b := append(append(buf[:0], kind...), '-')
	if digits[0] == '-' {
		// %04d pads after the sign: -7 prints as -007.
		b, digits = append(b, '-'), digits[1:]
		b = append(b, "000"[min(len(digits), 3):]...)
	} else {
		b = append(b, "0000"[min(len(digits), 4):]...)
	}
	return string(append(b, digits...))
}

// Generate synthesizes a deterministic trace for the configuration.
func Generate(cfg Config) ([]Job, error) {
	cfg, m, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	r := rng.Derive(cfg.Seed, rng.HashString(string(cfg.Kind)))
	jobs := make([]Job, 0, cfg.NumJobs)
	for i := 0; i < cfg.NumJobs; i++ {
		submit := arrivalTime(cfg.Kind, r, cfg.Duration)
		jobs = append(jobs, synthesize(r, cfg, m, i, submit))
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime })
	return jobs, nil
}

// arrivalTime draws one submission time following the kind's load shape.
func arrivalTime(kind Kind, r *rng.SplitMix64, duration float64) float64 {
	u := r.Float64()
	switch kind {
	case Philly:
		// 3/7 of the span carries ~20% of jobs (low-load prefix with
		// transient bursts); 4/7 carries ~80% (heavy suffix).
		if r.Float64() < 0.20 {
			t := u * duration * 3 / 7
			// Transient bursts: cluster 40% of prefix jobs into narrow spikes.
			if r.Float64() < 0.4 {
				spike := float64(r.Intn(3)) / 3 * duration * 3 / 7
				t = spike + u*duration*0.01
			}
			return t
		}
		return duration*3/7 + u*duration*4/7
	case Helios:
		// Moderate steady load with a gentle diurnal ripple.
		return u * duration
	case PAI:
		// Light load: arrivals thin out towards the end of the day.
		return u * u * duration
	default:
		return u * duration
	}
}

// weightedChoice returns an index drawn according to the weights.
func weightedChoice(r *rng.SplitMix64, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// priorityWeights skews mass towards lower (more urgent) priorities.
func priorityWeights(levels int) []float64 {
	w := make([]float64, levels)
	for i := range w {
		w[i] = 1 / float64(i+2) // 1/2, 1/3, 1/4, ...
	}
	// Reverse so priority 1 (index 0) is least common: production clusters
	// reserve top priority for few jobs, most run at the default level.
	for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
		w[i], w[j] = w[j], w[i]
	}
	return w
}

// PhillySixHour returns the §5.2 testbed trace configuration: 6 hours,
// 244 jobs.
func PhillySixHour(seed uint64, gpuTypes []string) Config {
	return Config{
		Kind: Philly, Duration: 6 * 3600, NumJobs: 244, Seed: seed,
		GPUTypes: gpuTypes, MaxGPUs: 16,
	}
}

// PhillyWeek returns the §5.3 large-scale simulation trace configuration:
// one week of Philly-shaped load.
func PhillyWeek(seed uint64, gpuTypes []string, jobs int) Config {
	return Config{
		Kind: Philly, Duration: 7 * 24 * 3600, NumJobs: jobs, Seed: seed,
		GPUTypes: gpuTypes, MaxGPUs: 16,
	}
}

// HeliosDay returns the §5.3 moderate-load one-day trace configuration.
func HeliosDay(seed uint64, gpuTypes []string, jobs int) Config {
	return Config{
		Kind: Helios, Duration: 24 * 3600, NumJobs: jobs, Seed: seed,
		GPUTypes: gpuTypes, MaxGPUs: 16,
	}
}

// PAIDay returns the §5.3 light-load one-day trace configuration.
func PAIDay(seed uint64, gpuTypes []string, jobs int) Config {
	return Config{
		Kind: PAI, Duration: 24 * 3600, NumJobs: jobs, Seed: seed,
		GPUTypes: gpuTypes, MaxGPUs: 16,
	}
}
