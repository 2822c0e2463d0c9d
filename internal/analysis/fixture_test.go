package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Fixture tests mirror x/tools' analysistest: each testdata/<dir> is one
// package, type-checked under a caller-chosen import path — so scoped
// analyzers see the fixture as in-scope production code — and every
// expected finding is declared in place with a comment of the form
//
//	// want `regexp`
//
// on the flagged line. The pattern is matched against
// "<message> [<analyzer>]", so fixtures can pin which analyzer fired.
// Hygiene diagnostics for malformed //arena:allow directives land on the
// directive's own line, where a want comment cannot sit (a line holds
// one line comment); those cases assert programmatically instead.

var (
	fixOnce sync.Once
	fixLd   *moduleLoader
	fixErr  error
)

// fixtureExtraImports are packages fixtures may import beyond the
// module's own dependency closure.
var fixtureExtraImports = []string{"cmp", "math/rand", "math/rand/v2", "slices"}

// fixtureLoader builds (once) a moduleLoader able to type-check fixture
// packages: module-internal imports resolve from source, everything else
// from the build cache's export data.
func fixtureLoader(t *testing.T) *moduleLoader {
	t.Helper()
	fixOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			fixErr = err
			return
		}
		listed, err := goList(root, "", false, []string{"./..."})
		if err != nil {
			fixErr = err
			return
		}
		external := map[string]bool{}
		for _, p := range fixtureExtraImports {
			external[p] = true
		}
		byPath := map[string]*listedPackage{}
		for _, p := range listed {
			if p.Standard || !strings.HasPrefix(p.ImportPath, ModulePath) {
				continue
			}
			byPath[p.ImportPath] = p
			for _, lists := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
				for _, imp := range lists {
					if imp != "C" && imp != "unsafe" && !strings.HasPrefix(imp, ModulePath) {
						external[imp] = true
					}
				}
			}
		}
		exports, err := exportData(root, "", sortedKeys(external))
		if err != nil {
			fixErr = err
			return
		}
		fset := token.NewFileSet()
		fixLd = &moduleLoader{
			fset:    fset,
			byPath:  byPath,
			checked: map[string]*types.Package{},
			gc:      gcImporter(fset, exports),
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixLd
}

// fixtureDiags type-checks testdata/<dir> under importPath and returns
// RunPackage's findings plus the loaded package.
func fixtureDiags(t *testing.T, analyzers []*Analyzer, dir, importPath string) (*Package, []Diagnostic) {
	t.Helper()
	ld := fixtureLoader(t)
	full := filepath.Join("testdata", dir)
	pkg, err := ld.check(importPath, full, goFilesIn(t, full))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, diags
}

// goFilesIn lists a fixture directory's Go files, sorted.
func goFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	return files
}

// runFixture checks the fixture and matches findings against its want
// comments.
func runFixture(t *testing.T, analyzers []*Analyzer, dir, importPath string) {
	t.Helper()
	pkg, diags := fixtureDiags(t, analyzers, dir, importPath)
	matchWants(t, pkg, diags)
}

type wantPattern struct {
	re      *regexp.Regexp
	matched bool
}

var wantArgRe = regexp.MustCompile("`([^`]*)`")

// matchWants pairs each diagnostic with exactly one want pattern on the
// diagnostic's line; leftover diagnostics and unmatched wants both fail.
func matchWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[string]map[int][]*wantPattern{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := wants[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*wantPattern{}
					wants[pos.Filename] = byLine
				}
				matches := wantArgRe.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Errorf("%s: want comment without a backquoted pattern: %s", pos, c.Text)
					continue
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					byLine[pos.Line] = append(byLine[pos.Line], &wantPattern{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		got := fmt.Sprintf("%s [%s]", d.Message, d.Analyzer)
		matched := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if !w.matched && w.re.MatchString(got) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, got)
		}
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.re)
				}
			}
		}
	}
}

// TestAnalyzerFixtures drives the five analyzers over their golden
// fixtures: positive cases (each historical bug class re-introduced),
// negative cases, and reason-carrying suppressions.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzers  []*Analyzer
	}{
		{"ctxshadow", ModulePath + "/internal/sim", []*Analyzer{CtxShadow}},
		{"clockdiscipline", ModulePath + "/internal/sched", []*Analyzer{ClockDiscipline}},
		{"maporder", ModulePath + "/internal/sched", []*Analyzer{MapOrder}},
		{"stablesort", ModulePath + "/internal/planner", []*Analyzer{StableSort}},
		{"rngdiscipline", ModulePath + "/internal/faults", []*Analyzer{RngDiscipline}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			runFixture(t, c.analyzers, c.dir, c.importPath)
		})
	}
}

// TestReasonlessAllowFails proves a reasonless //arena:allow suppresses
// nothing: the original finding survives AND the directive itself
// becomes a hygiene finding.
func TestReasonlessAllowFails(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		a          *Analyzer
	}{
		{"ctxshadow_badallow", ModulePath + "/internal/sim", CtxShadow},
		{"clockdiscipline_badallow", ModulePath + "/internal/sched", ClockDiscipline},
		{"maporder_badallow", ModulePath + "/internal/sched", MapOrder},
		{"stablesort_badallow", ModulePath + "/internal/planner", StableSort},
		{"rngdiscipline_badallow", ModulePath + "/internal/faults", RngDiscipline},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			_, diags := fixtureDiags(t, []*Analyzer{c.a}, c.dir, c.importPath)
			var original, hygiene int
			for _, d := range diags {
				switch d.Analyzer {
				case c.a.Name:
					original++
				case "arena-allow":
					if !strings.Contains(d.Message, "has no reason") {
						t.Errorf("hygiene finding without the no-reason message: %s", d)
					}
					hygiene++
				default:
					t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
				}
			}
			if original != 1 || hygiene != 1 {
				t.Fatalf("want 1 surviving finding + 1 hygiene finding, got %d + %d: %v",
					original, hygiene, diags)
			}
		})
	}
}

// TestAllowHygiene covers the remaining directive defects: a missing
// analyzer name, an unknown analyzer, and a stale directive that
// suppresses nothing. A non-directive //arena:allowance comment must
// stay invisible.
func TestAllowHygiene(t *testing.T) {
	_, diags := fixtureDiags(t, All(), "allowhygiene", ModulePath+"/internal/sched")
	wantParts := []string{
		"needs an analyzer name",
		`unknown analyzer "nosuchcheck"`,
		"suppresses nothing",
	}
	if len(diags) != len(wantParts) {
		t.Fatalf("want %d hygiene findings, got %d: %v", len(wantParts), len(diags), diags)
	}
	for i, part := range wantParts {
		if diags[i].Analyzer != "arena-allow" || !strings.Contains(diags[i].Message, part) {
			t.Errorf("finding %d = %s, want arena-allow message containing %q", i, diags[i], part)
		}
	}
}
