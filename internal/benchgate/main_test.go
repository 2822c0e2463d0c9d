package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/sjtu-epcc/arena
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFullSearch/serial-4         	       5	  55792622 ns/op
BenchmarkFullSearch/serial-4         	       5	  60000000 ns/op
BenchmarkFullSearch/serial-4         	       5	  50000000 ns/op
BenchmarkFullSearch/cached-parallel-4	       5	  17781101 ns/op
BenchmarkFullSearch/cached-parallel-4	       5	  18000000 ns/op
BenchmarkFullSearch/cached-parallel-4	       5	  17000000 ns/op
BenchmarkBuildPerfDB/snapshot-4      	       5	     70602 ns/op	   12345 B/op	      67 allocs/op
PASS
ok  	github.com/sjtu-epcc/arena	12.345s
`

const sampleBaseline = `{
  "benchmarks": {
    "BenchmarkFullSearch": {
      "inputs": "ignored",
      "serial_ns_per_op": 55792622,
      "cached_parallel_ns_per_op": 17781101,
      "speedup": 3.14
    },
    "BenchmarkBuildPerfDB": {
      "snapshot_ns_per_op": 70602
    }
  }
}`

func TestParseBenchOutput(t *testing.T) {
	runs, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs["BenchmarkFullSearch/serial"].Samples); got != 3 {
		t.Fatalf("serial samples: want 3, got %d", got)
	}
	// The -4 GOMAXPROCS suffix must be stripped and kept as the run's
	// GOMAXPROCS, extra metrics tolerated.
	if r := runs["BenchmarkBuildPerfDB/snapshot"]; r == nil || len(r.Samples) != 1 || r.Procs != 4 {
		t.Fatalf("snapshot: want 1 sample at GOMAXPROCS 4, got %+v (keys %v)", r, runs)
	}
	if _, err := parseBenchOutput(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("benchmark-free input must error")
	}
}

func TestLoadBaselines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	// Underscore variants map to dash-named sub-benchmarks; non-ns fields
	// (inputs, speedup) are ignored.
	if base["BenchmarkFullSearch/cached-parallel"].NsPerOp != 17781101 {
		t.Fatalf("cached-parallel baseline missing: %v", base)
	}
	if len(base) != 3 {
		t.Fatalf("want 3 baselines, got %v", base)
	}
}

func TestCompareTolerance(t *testing.T) {
	runs := map[string]*benchRun{
		"BenchmarkFullSearch/serial": {Samples: []float64{100, 300, 200}, Procs: 1}, // median 200
		"BenchmarkFullSearch/new":    {Samples: []float64{50}, Procs: 1},            // no baseline: skipped
	}
	baselines := map[string]baseline{
		"BenchmarkFullSearch/serial": {NsPerOp: 100, Procs: 1},
		"BenchmarkFullSearch/idle":   {NsPerOp: 1, Procs: 1}, // not run: skipped
	}
	res := compare(runs, baselines, 2.5)
	if len(res) != 1 || res[0].Failed {
		t.Fatalf("2.0x median must pass at 2.5x tolerance: %+v", res)
	}
	res = compare(runs, baselines, 1.5)
	if len(res) != 1 || !res[0].Failed {
		t.Fatalf("2.0x median must fail at 1.5x tolerance: %+v", res)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median: %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median: %v", m)
	}
}

func TestUnmatchedBaselines(t *testing.T) {
	runs := map[string]*benchRun{"BenchmarkFullSearch/serial": {Samples: []float64{100}, Procs: 1}}
	baselines := map[string]baseline{
		"BenchmarkFullSearch/serial":    {NsPerOp: 100},
		"BenchmarkBuildPerfDB/snapshot": {NsPerOp: 70602},
		"BenchmarkBuildPerfDB/cached":   {NsPerOp: 1},
	}
	missing := unmatchedBaselines(runs, baselines)
	if len(missing) != 2 || missing[0] != "BenchmarkBuildPerfDB/cached" {
		t.Fatalf("want the two unexercised baselines sorted, got %v", missing)
	}
}

// TestCompareMarksCrossRegime pins the CPU-regime report: a run's
// GOMAXPROCS comes from its name suffix (none means 1), a baseline's from
// <variant>_gomaxprocs, and a row is marked when they differ or the
// baseline records none. The mark never fails a row.
func TestCompareMarksCrossRegime(t *testing.T) {
	out := `BenchmarkA/one   	5	100 ns/op
BenchmarkA/two-2 	5	100 ns/op
BenchmarkA/four-4	5	100 ns/op
BenchmarkA/bare  	5	100 ns/op
`
	path := filepath.Join(t.TempDir(), "base.json")
	base := `{"benchmarks": {"BenchmarkA": {
  "one_ns_per_op": 100, "one_gomaxprocs": 1,
  "two_ns_per_op": 100, "two_gomaxprocs": 2,
  "four_ns_per_op": 100, "four_gomaxprocs": 1,
  "bare_ns_per_op": 100
}}}`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	baselines, err := loadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range compare(runs, baselines, 2.5) {
		if r.Failed {
			t.Errorf("%s failed at ratio %g", r.Name, r.Ratio)
		}
		got[r.Name] = fmt.Sprintf("%s %v", procsColumn(r), r.CrossRegime())
	}
	want := map[string]string{
		"BenchmarkA/one":  "1/1 false",
		"BenchmarkA/two":  "2/2 false",
		"BenchmarkA/four": "4/1 true",
		"BenchmarkA/bare": "1/? true",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}
