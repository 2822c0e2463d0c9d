package core

import (
	"testing"

	"github.com/sjtu-epcc/arena/internal/model"
)

func TestPipelineDegrees(t *testing.T) {
	got := PipelineDegrees(4, 16)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("degrees = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degrees = %v, want %v", got, want)
		}
	}
	// Capped by MaxPipelineDegree.
	if got := PipelineDegrees(64, 64); got[len(got)-1] != MaxPipelineDegree {
		t.Errorf("degrees should cap at %d: %v", MaxPipelineDegree, got)
	}
	// Capped by operator count.
	if got := PipelineDegrees(16, 3); got[len(got)-1] != 3 {
		t.Errorf("degrees should cap at op count: %v", got)
	}
}

func TestGPUCounts(t *testing.T) {
	got := GPUCounts(16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("counts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v", got)
		}
	}
}

func TestEnumerate(t *testing.T) {
	w := model.Workload{Model: "GPT-1.3B", GlobalBatch: 128}
	grids := Enumerate(w, 16, []string{"A40", "A10"}, 4)
	// Per type: n=1 (s=1), n=2 (s=1,2), n=4 (s=1..4) → 7 grids; 2 types.
	if len(grids) != 14 {
		t.Fatalf("got %d grids, want 14", len(grids))
	}
	seen := map[string]bool{}
	for _, g := range grids {
		if seen[g.String()] {
			t.Fatalf("duplicate grid %v", g)
		}
		seen[g.String()] = true
		if g.S > g.N {
			t.Errorf("grid %v has more stages than GPUs", g)
		}
	}
}

func TestGridStringStable(t *testing.T) {
	w := model.Workload{Model: "MoE-2.4B", GlobalBatch: 256}
	g := Grid{Workload: w, GPUType: "A100", N: 8, S: 2}
	if g.String() != "MoE-2.4B@256/8xA100/s2" {
		t.Errorf("String() = %q", g.String())
	}
}

func TestResourceString(t *testing.T) {
	r := Resource{GPUType: "V100", N: 16}
	if r.String() != "16xV100" {
		t.Errorf("String() = %q", r.String())
	}
}
