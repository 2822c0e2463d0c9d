package trace

import (
	"fmt"
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// Source streams trace jobs one at a time, in non-decreasing SubmitTime
// order. It is the scale-friendly alternative to materializing a []Job:
// the simulator pulls jobs on demand, so a million-job trace never
// exists as a slice and simulation memory stays O(active jobs).
//
// A Source is single-use: Next returns (Job, true) until the trace is
// exhausted, then (Job{}, false) forever. Implementations must be
// deterministic — two Sources built from the same configuration yield
// identical sequences, which is what lets parity tests run the same
// trace through two simulator cores.
type Source interface {
	Next() (Job, bool)
}

// Spanner is optionally implemented by Sources that know their arrival
// span (the largest SubmitTime they will ever emit). The simulator uses
// it to derive a round horizon when MaxRounds is not set; a Source
// without a Span needs an explicit MaxRounds.
type Spanner interface {
	Span() float64
}

// sliceSource adapts a materialized []Job to the Source interface.
type sliceSource struct {
	jobs []Job
	i    int
}

// SliceSource wraps an in-memory trace as a streaming Source — how a
// materialized []Job reaches the simulator. The slice is copied and
// stably sorted by SubmitTime (ties keep slice order).
func SliceSource(jobs []Job) Source {
	cp := append([]Job(nil), jobs...)
	sort.SliceStable(cp, func(a, b int) bool { return cp[a].SubmitTime < cp[b].SubmitTime })
	return &sliceSource{jobs: cp}
}

func (s *sliceSource) Next() (Job, bool) {
	if s.i >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.i]
	s.i++
	return j, true
}

// Span returns the last submission time (0 for an empty trace).
func (s *sliceSource) Span() float64 {
	if len(s.jobs) == 0 {
		return 0
	}
	return s.jobs[len(s.jobs)-1].SubmitTime
}

// Generator is a streaming synthetic-trace Source: a non-homogeneous
// Poisson arrival process shaped like the configured trace family
// (Philly's bursty prefix + heavy suffix, Helios's diurnal ripple,
// PAI's thinning load), with the same workload/size/priority mixtures
// as Generate. Arrivals are drawn sequentially by thinning against the
// peak rate, so jobs come out already ordered by SubmitTime and the
// whole trace is never materialized.
//
// Generate draws i.i.d. submission times and sorts them — inherently
// O(NumJobs) memory — so Generator is a distinct (equally deterministic)
// process, not a bit-compatible replacement. NumJobs is the *expected*
// job count of the Poisson process; the realized count varies around it.
type Generator struct {
	cfg       Config
	workloads []model.Workload
	weights   []float64
	arrivals  *rng.SplitMix64 // arrival-process stream
	attrs     *rng.SplitMix64 // per-job attribute stream
	peak      float64         // thinning envelope: max of rate() over the span
	t         float64
	i         int
	done      bool
}

// Stream builds a streaming generator for the configuration. The same
// Config drives Generate; only the arrival process differs (see type
// doc). Two Generators from equal Configs emit identical sequences.
func Stream(cfg Config) (*Generator, error) {
	cfg, workloads, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	weights, err := workloadWeights(workloads)
	if err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:       cfg,
		workloads: workloads,
		weights:   weights,
		arrivals:  rng.Derive(cfg.Seed, rng.HashString("trace-stream-arrivals"), rng.HashString(string(cfg.Kind))),
		attrs:     rng.Derive(cfg.Seed, rng.HashString("trace-stream-attrs"), rng.HashString(string(cfg.Kind))),
	}
	g.peak = g.peakRate()
	return g, nil
}

// Next emits the next arrival, or false when the span is exhausted.
func (g *Generator) Next() (Job, bool) {
	if g.done {
		return Job{}, false
	}
	for {
		g.t += g.arrivals.Exp(1 / g.peak)
		if g.t >= g.cfg.Duration {
			g.done = true
			return Job{}, false
		}
		// Thinning: accept with probability rate(t)/peak.
		if g.arrivals.Float64()*g.peak <= g.rate(g.t) {
			break
		}
	}
	j := synthesize(g.attrs, g.cfg, g.workloads, g.weights, g.i, g.t)
	g.i++
	return j, true
}

// Span returns the trace span, letting the simulator derive a horizon.
func (g *Generator) Span() float64 { return g.cfg.Duration }

// rate is the instantaneous arrival intensity λ(t), shaped per family
// and normalized so the expected total over [0, Duration) is NumJobs.
func (g *Generator) rate(t float64) float64 {
	d, n := g.cfg.Duration, float64(g.cfg.NumJobs)
	switch g.cfg.Kind {
	case Philly:
		// 20% of the mass on the 3/7 prefix (12% spread + 8% in three
		// narrow bursts), 80% on the 4/7 suffix — Generate's shape.
		prefix := d * 3 / 7
		if t < prefix {
			lam := 0.12 * n / prefix
			for k := 0; k < 3; k++ {
				spike := float64(k) / 3 * prefix
				if t >= spike && t < spike+0.01*d {
					lam += 0.08 * n / 3 / (0.01 * d)
				}
			}
			return lam
		}
		return 0.8 * n / (d * 4 / 7)
	case Helios:
		// Moderate steady load with a gentle diurnal ripple.
		return n / d * (1 + 0.3*math.Sin(2*math.Pi*t/86400))
	case PAI:
		// Light load thinning out towards the end of the day.
		return 2 * n / d * (1 - t/d)
	default:
		return n / d
	}
}

// peakRate bounds rate() over the span — the thinning envelope.
func (g *Generator) peakRate() float64 {
	d, n := g.cfg.Duration, float64(g.cfg.NumJobs)
	switch g.cfg.Kind {
	case Philly:
		prefix := d * 3 / 7
		burst := 0.12*n/prefix + 0.08*n/3/(0.01*d)
		return math.Max(burst, 0.8*n/(d*4/7))
	case Helios:
		return 1.3 * n / d
	case PAI:
		return 2 * n / d
	default:
		return n / d
	}
}

// GenPreset resolves an arena-sim -trace-gen preset name to a generator
// configuration, applying the family's default job count when jobs is 0.
// The names mirror the paper's evaluation setups: the §5.2 six-hour
// Philly testbed trace and the §5.3 week/day simulation traces.
func GenPreset(name string, seed uint64, gpuTypes []string, jobs int) (Config, error) {
	switch name {
	case "philly-6h":
		cfg := PhillySixHour(seed, gpuTypes)
		if jobs > 0 {
			cfg.NumJobs = jobs
		}
		return cfg, nil
	case "philly-week":
		if jobs == 0 {
			jobs = 3000
		}
		return PhillyWeek(seed, gpuTypes, jobs), nil
	case "helios-day":
		if jobs == 0 {
			jobs = 900
		}
		return HeliosDay(seed, gpuTypes, jobs), nil
	case "pai-day":
		if jobs == 0 {
			jobs = 450
		}
		return PAIDay(seed, gpuTypes, jobs), nil
	default:
		return Config{}, fmt.Errorf("trace: unknown generator preset %q (want philly-6h|philly-week|helios-day|pai-day)", name)
	}
}
