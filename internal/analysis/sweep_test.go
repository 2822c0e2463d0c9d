package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

var (
	repoOnce sync.Once
	repoRes  *LoadResult
	repoErr  error

	benchOnce sync.Once
	benchRes  *LoadResult
	benchErr  error
)

// repoLoad loads the module at HEAD once for both repo sweeps.
func repoLoad(t *testing.T) *LoadResult {
	t.Helper()
	repoOnce.Do(func() {
		var root string
		root, repoErr = FindModuleRoot(".")
		if repoErr == nil {
			repoRes, repoErr = LoadModule(LoadConfig{Dir: root})
		}
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoRes
}

// sweepUnits returns the units of this module and of the benchmark/
// module, each loaded once, for the sweeps that read both: benchmark/'s
// code is the only caller of some of internal/'s API.
func sweepUnits(t *testing.T) []*Package {
	t.Helper()
	res := repoLoad(t)
	benchOnce.Do(func() {
		var root string
		root, benchErr = FindModuleRoot(".")
		if benchErr == nil {
			benchRes, benchErr = LoadModule(LoadConfig{Dir: filepath.Join(root, "benchmark")})
		}
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return append(append([]*Package{}, res.Packages...), benchRes.Packages...)
}

// TestRepoSweep runs the full analyzer suite over the module at HEAD
// and requires zero findings — the same gate CI applies through
// `go vet -vettool=arena-vet`, held here inside plain `go test ./...`
// so the discipline binds offline and in every checkout.
func TestRepoSweep(t *testing.T) {
	res := repoLoad(t)
	// No file may hide from the sweep behind a build tag: the repo has
	// no tag-gated Go files today, and any future ones must come with a
	// per-configuration arena-vet invocation before this can relax.
	for _, f := range res.IgnoredFiles {
		t.Errorf("file excluded by the active build configuration escapes the sweep: %s", f)
	}
	total := 0
	for _, pkg := range res.Packages {
		diags, err := RunPackage(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
			total++
		}
	}
	if total > 0 {
		t.Fatalf("%d determinism findings at HEAD; fix them or add a reasoned //arena:allow", total)
	}
}
