package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

type metricSpec struct{ Name, Unit string }

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload of BENCHMARK.json at 1/100 scale, once
// untraced and once traced. Every metric the file names must be printed
// as "name value unit" with its unit and a finite value, and the result
// line must carry exactly the end-to-end metrics untraced and exactly
// the per-layer metrics traced.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			t.Run(wl.Name+"/trace="+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", wl.Name, "-seconds", "0", "-scale", "0.01", "-trace", traced, "-dir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string][]string{}
				for _, line := range lines {
					if f := strings.Fields(line); len(f) == 3 {
						printed[f[0]] = f[1:]
					}
				}
				for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), want...) {
					f, ok := printed[m.Name]
					if !ok {
						t.Errorf("%s not printed", m.Name)
						continue
					}
					v, err := strconv.ParseFloat(f[0], 64)
					if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || f[1] != m.Unit {
						t.Errorf("%s printed as %q, want a finite value in %s", m.Name, f, m.Unit)
					}
				}

				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result line: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("result line: %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}
