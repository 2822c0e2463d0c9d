// Command benchgate is the CI benchmark-regression gate: it parses `go
// test -bench` output, reduces repeated runs (-count N) to per-benchmark
// medians, and compares them against the wall-clock baselines recorded in
// BENCH_search.json. The tolerance is deliberately generous — shared CI
// runners are noisy, so the gate exists to catch order-of-magnitude
// regressions (a cache that stopped hitting, a fan-out that went serial),
// not single-digit percentage drift.
//
// Usage:
//
//	go test -run XXX -bench 'BenchmarkFullSearch$|BenchmarkBuildPerfDB' \
//	    -benchtime 5x -count 3 . | tee bench-output.txt
//	go run ./internal/benchgate -bench bench-output.txt \
//	    -baseline BENCH_search.json -tolerance 2.5
//
// Exit status 1 means at least one benchmark's median exceeded
// tolerance × baseline; 2 means the inputs could not be interpreted or a
// baseline went unmatched by any run (both must fail CI too — a gate that
// silently matches less than it used to guards less than it claims).
// Local runs benching a subset can pass -require-all-baselines=false.
//
// Each baseline records the GOMAXPROCS it was measured at
// (<variant>_gomaxprocs beside <variant>_ns_per_op), and a run's comes
// from the -N suffix go test appends to the benchmark name (no suffix
// means 1). A row whose run and baseline differ is marked and counted in
// a summary line: its ratio compares two CPU regimes. The mark does not
// change the exit status.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		benchPath  = flag.String("bench", "", "go test -bench output file (default stdin)")
		basePath   = flag.String("baseline", "BENCH_search.json", "baseline file")
		tolerance  = flag.Float64("tolerance", 2.5, "fail when median > tolerance x baseline")
		requireAll = flag.Bool("require-all-baselines", true, "fail when a baseline matches no benchmark run (guards against silent coverage erosion)")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	runs, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	baselines, err := loadBaselines(*basePath)
	if err != nil {
		fatal(err)
	}

	results := compare(runs, baselines, *tolerance)
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark in the input matched any baseline in %s", *basePath))
	}
	failed := false
	crossed := 0
	fmt.Printf("%-40s %15s %15s %7s %7s  %s\n", "benchmark", "median ns/op", "baseline ns/op", "ratio", "procs", "status")
	for _, r := range results {
		status := "ok"
		if r.Failed {
			status = fmt.Sprintf("FAIL (> %.2fx)", *tolerance)
			failed = true
		}
		if r.CrossRegime() {
			status += " [other CPU regime]"
			crossed++
		}
		fmt.Printf("%-40s %15.0f %15.0f %6.2fx %7s  %s\n", r.Name, r.Median, r.Baseline, r.Ratio, procsColumn(r), status)
	}
	fmt.Printf("%d of %d comparisons ran at another GOMAXPROCS than their baseline's\n", crossed, len(results))
	if missing := unmatchedBaselines(runs, baselines); len(missing) > 0 {
		for _, name := range missing {
			fmt.Printf("%-40s %15s %15.0f %7s %7s  baseline not exercised by any run\n", name, "-", baselines[name].NsPerOp, "-", "-")
		}
		if *requireAll {
			fatal(fmt.Errorf("%d baseline(s) matched no benchmark run (renamed benchmark or drifted baseline key?); rerun with -require-all-baselines=false if the subset is intentional", len(missing)))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// procsColumn prints a row's run and baseline GOMAXPROCS, "?" for a
// baseline that records none.
func procsColumn(r comparison) string {
	base := "?"
	if r.BaseProcs > 0 {
		base = strconv.Itoa(r.BaseProcs)
	}
	return fmt.Sprintf("%d/%s", r.Procs, base)
}

// unmatchedBaselines lists baselines no run exercised, sorted for stable
// output.
func unmatchedBaselines(runs map[string]*benchRun, baselines map[string]baseline) []string {
	var missing []string
	for name := range baselines {
		if _, ok := runs[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

// benchRun is one benchmark's parsed results: its ns/op samples and the
// GOMAXPROCS they ran at.
type benchRun struct {
	Samples []float64
	Procs   int
}

// parseBenchOutput collects ns/op samples per benchmark name from `go
// test -bench` output. It strips the trailing -GOMAXPROCS suffix, so
// repeated -count runs aggregate under one name, and keeps it as the
// run's GOMAXPROCS: go test prints no suffix at 1.
func parseBenchOutput(r io.Reader) (map[string]*benchRun, error) {
	runs := map[string]*benchRun{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-4  <iters>  <ns> ns/op [extra metrics...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsIdx := -1
		for i := 2; i < len(fields); i++ {
			if fields[i] == "ns/op" {
				nsIdx = i - 1
				break
			}
		}
		if nsIdx < 1 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil {
			continue
		}
		name, procs := fields[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		run := runs[name]
		if run == nil {
			run = &benchRun{Procs: procs}
			runs[name] = run
		}
		run.Samples = append(run.Samples, ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	return runs, nil
}

// baselineFile mirrors the relevant shape of BENCH_search.json: a
// "benchmarks" object whose members hold <variant>_ns_per_op numbers and
// the <variant>_gomaxprocs they were recorded at.
type baselineFile struct {
	Benchmarks map[string]map[string]any `json:"benchmarks"`
}

// baseline is one recorded variant: its ns/op and its GOMAXPROCS (0 when
// the file records none).
type baseline struct {
	NsPerOp float64
	Procs   int
}

// loadBaselines flattens BENCH_search.json into full benchmark names:
// benchmarks.BenchmarkFullSearch.serial_ns_per_op becomes
// "BenchmarkFullSearch/serial". Underscores in the variant map to dashes
// in the sub-benchmark name (cached_parallel -> cached-parallel).
func loadBaselines(path string) (map[string]baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]baseline{}
	for bench, members := range bf.Benchmarks {
		for key, val := range members {
			variant, ok := strings.CutSuffix(key, "_ns_per_op")
			if !ok {
				continue
			}
			ns, ok := val.(float64)
			if !ok || ns <= 0 {
				continue
			}
			procs, _ := members[variant+"_gomaxprocs"].(float64)
			out[bench+"/"+strings.ReplaceAll(variant, "_", "-")] = baseline{NsPerOp: ns, Procs: int(procs)}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no *_ns_per_op baselines found", path)
	}
	return out, nil
}

// comparison is one benchmark's verdict, with the GOMAXPROCS of its run
// and of its baseline.
type comparison struct {
	Name             string
	Median, Baseline float64
	Ratio            float64
	Failed           bool
	Procs, BaseProcs int
}

// CrossRegime reports that the run and its baseline ran at different
// GOMAXPROCS, or that the baseline records none.
func (c comparison) CrossRegime() bool { return c.Procs != c.BaseProcs }

// compare reduces each matched benchmark's samples to the median and
// judges it against tolerance × baseline. Benchmarks without a baseline
// (new ones) and baselines without a run (not selected) are skipped.
func compare(runs map[string]*benchRun, baselines map[string]baseline, tolerance float64) []comparison {
	var out []comparison
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := baselines[name]
		if !ok {
			continue
		}
		run := runs[name]
		med := median(run.Samples)
		out = append(out, comparison{
			Name: name, Median: med, Baseline: base.NsPerOp,
			Ratio:  med / base.NsPerOp,
			Failed: med > tolerance*base.NsPerOp,
			Procs:  run.Procs, BaseProcs: base.Procs,
		})
	}
	return out
}

// median returns the middle sample (mean of the middle two for even
// counts).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
