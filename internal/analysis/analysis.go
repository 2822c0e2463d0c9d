// Package analysis is the repository's determinism-discipline analyzer
// suite: a dependency-free re-creation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) built on the
// standard library's go/ast and go/types, plus the five checks that
// machine-enforce the guarantees ARCHITECTURE.md's determinism table
// documents:
//
//	ctxshadow       no declaration may shadow a context.Context parameter
//	clockdiscipline scheduling code takes instants from internal/clock only
//	maporder        map iteration order must not escape into output
//	stablesort      sort.Slice needs a proven total order; ties need a rank;
//	                slices.SortFunc is always flagged
//	rngdiscipline   scheduling/fault randomness flows through internal/rng
//
// Each bug class shipped at least once before being caught by a parity
// test (see the analyzer docstrings for the archaeology); the suite
// turns those one-off postmortems into vet-time gates. The analyzers
// run three ways: `go vet -vettool=$(which arena-vet) ./...` in CI,
// `arena-vet ./...` standalone, and a repo-sweep package test inside
// plain `go test ./...` so the gate holds offline too.
//
// A finding can be suppressed with a trailing or immediately preceding
// comment of the form
//
//	//arena:allow <analyzer> <reason>
//
// The reason is mandatory: an allow directive with an empty reason is
// itself a finding, as is one naming an unknown analyzer or one that
// suppresses nothing (stale allows rot into silent holes).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import path of the module this suite guards. Scope
// allowlists are expressed relative to it.
const ModulePath = "github.com/sjtu-epcc/arena"

// An Analyzer describes one determinism-discipline check. The shape
// deliberately mirrors golang.org/x/tools/go/analysis so the suite can
// migrate onto the real framework wholesale if the dependency ever
// becomes available; only the scoping fields are local inventions.
type Analyzer struct {
	Name string // short lower-case identifier, used in //arena:allow
	Doc  string // one-paragraph description for `arena-vet help`

	// Scope lists import-path prefixes relative to ModulePath (e.g.
	// "internal/sched") where the analyzer applies. Empty means the
	// whole module. Packages outside ModulePath are never analyzed.
	Scope []string

	// SkipTests excludes _test.go files from the analyzer's view.
	// Tests legitimately sleep, shuffle and brute-force; the
	// discipline protects production scheduling output.
	SkipTests bool

	Run func(*Pass) error
}

// appliesTo reports whether the analyzer's scope covers importPath.
// External-test packages ("pkg_test") share their base package's scope.
func (a *Analyzer) appliesTo(importPath string) bool {
	importPath = strings.TrimSuffix(importPath, "_test")
	if importPath != ModulePath && !strings.HasPrefix(importPath, ModulePath+"/") {
		return false
	}
	if len(a.Scope) == 0 {
		return true
	}
	rel := strings.TrimPrefix(importPath, ModulePath+"/")
	for _, dir := range a.Scope {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

// A Pass connects one analyzer to one type-checked package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File // already filtered by SkipTests
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with the position already resolved so
// callers can sort and print without holding the FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Package is one type-checked unit ready for analysis. Loaders
// (load.go, the arena-vet unitchecker mode, the fixture runner) all
// funnel into this shape.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string
}

// NewTypesInfo returns a types.Info with every map the analyzers read
// allocated. All loaders must use it so a Pass never sees a nil map.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// RunPackage applies every applicable analyzer to pkg, resolves
// //arena:allow suppressions, and returns the surviving findings in
// position order. Directive hygiene problems (missing reason, unknown
// analyzer, allow that suppressed nothing) are returned as findings
// too.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := collectAllows(pkg.Fset, pkg.Files)

	var raw []Diagnostic
	for _, a := range analyzers {
		if !a.appliesTo(pkg.ImportPath) {
			continue
		}
		files := pkg.Files
		if a.SkipTests {
			files = nil
			for _, f := range pkg.Files {
				if !strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go") {
					files = append(files, f)
				}
			}
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      files,
			Pkg:        pkg.Pkg,
			TypesInfo:  pkg.TypesInfo,
			ImportPath: pkg.ImportPath,
			diags:      &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if al := allows.match(d.Pos, d.Analyzer); al != nil {
			al.used = true
			continue
		}
		out = append(out, d)
	}
	out = append(out, allows.hygiene(known)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// allowDirective is one parsed //arena:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

type allowSet struct {
	// byLoc indexes directives by (file, line, analyzer). A directive
	// suppresses findings on its own line and on the line directly
	// below it (the comment-above-the-statement placement).
	byLoc map[string]map[int][]*allowDirective
	all   []*allowDirective
}

const allowPrefix = "//arena:allow"

// collectAllows scans every comment in files for allow directives.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	s := &allowSet{byLoc: make(map[string]map[int][]*allowDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //arena:allowance — not ours
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				d := &allowDirective{
					pos:      fset.Position(c.Pos()),
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				}
				s.all = append(s.all, d)
				byLine := s.byLoc[d.pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowDirective)
					s.byLoc[d.pos.Filename] = byLine
				}
				byLine[d.pos.Line] = append(byLine[d.pos.Line], d)
			}
		}
	}
	return s
}

// match returns the directive suppressing a finding by analyzer at pos,
// or nil. Directives with problems (empty reason, unknown analyzer) do
// not suppress: the code stays red until the directive is fixed.
func (s *allowSet) match(pos token.Position, analyzer string) *allowDirective {
	byLine := s.byLoc[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.analyzer == analyzer && d.reason != "" {
				return d
			}
		}
	}
	return nil
}

// hygiene returns findings for malformed or stale directives.
func (s *allowSet) hygiene(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.all {
		switch {
		case d.analyzer == "":
			out = append(out, Diagnostic{
				Analyzer: "arena-allow", Pos: d.pos,
				Message: "//arena:allow needs an analyzer name and a reason",
			})
		case !known[d.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "arena-allow", Pos: d.pos,
				Message: fmt.Sprintf("//arena:allow names unknown analyzer %q", d.analyzer),
			})
		case d.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "arena-allow", Pos: d.pos,
				Message: fmt.Sprintf("//arena:allow %s has no reason: justify the suppression or fix the finding", d.analyzer),
			})
		case !d.used:
			out = append(out, Diagnostic{
				Analyzer: "arena-allow", Pos: d.pos,
				Message: fmt.Sprintf("//arena:allow %s suppresses nothing: remove the stale directive", d.analyzer),
			})
		}
	}
	return out
}
