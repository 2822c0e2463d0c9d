package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The standalone loader: parse and type-check every package of this
// module using only the standard library plus the go command. Package
// metadata comes from `go list -json -deps`; type information for
// external dependencies (the standard library — go.mod declares nothing
// else) comes from export data produced by `go list -export`, which
// works fully offline against the build cache. Module packages are
// type-checked from source in dependency order so the analyzers see
// syntax trees, not just export data. That includes packages of this
// module that the patterns reach only as dependencies — from the
// benchmark/ module, whose go.mod replaces this one with its source —
// though those yield no analysis unit.
//
// Each module package yields up to two analysis units: the package
// including its in-package _test.go files, and — when present — the
// external test package (pkg_test). Production-only analyzers filter
// test files per Analyzer.SkipTests; type-checking with tests included
// is what lets external test files resolve the package under test.

// listedPackage is the subset of `go list -json` output the loader
// reads.
type listedPackage struct {
	ImportPath     string
	Dir            string
	Standard       bool
	Export         string
	GoFiles        []string
	CgoFiles       []string
	TestGoFiles    []string
	XTestGoFiles   []string
	DepOnly        bool // reached only as a dependency of the patterns
	IgnoredGoFiles []string
	Imports        []string
	TestImports    []string
	XTestImports   []string
}

// LoadConfig parameterizes a module load.
type LoadConfig struct {
	Dir      string   // module root (a directory containing go.mod)
	Patterns []string // package patterns, default ./...
	Tags     string   // -tags to forward to the go command
}

// LoadResult is one loaded module, plus the files the active build
// configuration left out (so a sweep can refuse to silently skip
// tag-gated code).
type LoadResult struct {
	Packages     []*Package
	IgnoredFiles []string // per-package IgnoredGoFiles under the current tags
}

// LoadModule loads, parses and type-checks the module rooted at
// cfg.Dir.
func LoadModule(cfg LoadConfig) (*LoadResult, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	listed, err := goList(cfg.Dir, cfg.Tags, false, patterns)
	if err != nil {
		return nil, err
	}
	var local, mod []*listedPackage
	ignored := []string{}
	for _, p := range listed {
		if p.Standard || !strings.HasPrefix(p.ImportPath, ModulePath) {
			continue
		}
		local = append(local, p)
		if p.DepOnly {
			continue
		}
		mod = append(mod, p)
		for _, f := range p.IgnoredGoFiles {
			ignored = append(ignored, filepath.Join(p.Dir, f))
		}
	}

	// Export data for everything imported from outside the module.
	external := map[string]bool{}
	for _, p := range local {
		for _, lists := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, imp := range lists {
				if imp != "C" && imp != "unsafe" && !strings.HasPrefix(imp, ModulePath) {
					external[imp] = true
				}
			}
		}
	}
	exports, err := exportData(cfg.Dir, cfg.Tags, sortedKeys(external))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := &moduleLoader{
		fset:    fset,
		byPath:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		gc:      gcImporter(fset, exports),
	}
	for _, p := range local {
		ld.byPath[p.ImportPath] = p
	}

	var out []*Package
	for _, p := range mod {
		// Unit 1: the package with its in-package test files.
		files := append(append([]string{}, p.GoFiles...), p.CgoFiles...)
		files = append(files, p.TestGoFiles...)
		unit, err := ld.check(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, unit)

		// Unit 2: the external test package, if any.
		if len(p.XTestGoFiles) > 0 {
			xunit, err := ld.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			out = append(out, xunit)
		}
	}
	sort.Strings(ignored)
	return &LoadResult{Packages: out, IgnoredFiles: ignored}, nil
}

type moduleLoader struct {
	fset    *token.FileSet
	byPath  map[string]*listedPackage
	checked map[string]*types.Package // base units only, by import path
	gc      types.Importer
}

// Import implements types.Importer over the module graph: module-local
// packages are type-checked from source on demand (base unit, no test
// files — importable packages cannot depend on their importers' test
// variants); everything else resolves through gc export data.
func (ld *moduleLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	p, ok := ld.byPath[path]
	if !ok {
		return ld.gc.Import(path)
	}
	files := append(append([]string{}, p.GoFiles...), p.CgoFiles...)
	unit, err := ld.checkBase(path, p.Dir, files)
	if err != nil {
		return nil, err
	}
	return unit, nil
}

func (ld *moduleLoader) checkBase(importPath, dir string, files []string) (*types.Package, error) {
	unit, err := ld.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	ld.checked[importPath] = unit.Pkg
	return unit.Pkg, nil
}

// check parses and type-checks one unit.
func (ld *moduleLoader) check(importPath, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := NewTypesInfo()
	tc := &types.Config{Importer: ld}
	pkg, err := tc.Check(importPath, ld.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		Fset:       ld.fset,
		Files:      parsed,
		Pkg:        pkg,
		TypesInfo:  info,
		ImportPath: importPath,
	}, nil
}

// goList runs `go list -json -deps` and decodes the stream.
func goList(dir, tags string, export bool, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-json", "-deps"}
	if export {
		args = append(args, "-export")
	}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// exportData resolves import paths to export-data files via
// `go list -deps -export`, returning a path → file map.
func exportData(dir, tags string, paths []string) (map[string]string, error) {
	out := map[string]string{}
	if len(paths) == 0 {
		return out, nil
	}
	listed, err := goList(dir, tags, true, paths)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}

// gcImporter builds a types.Importer reading gc export data through a
// path → file map.
func gcImporter(fset *token.FileSet, files map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
