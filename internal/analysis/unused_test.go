package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The unused-declaration sweep: every package-level func, method, type,
// var and const declared in a non-test file under internal/ needs a
// reference from a non-test file of this module (the root facade, cmd/
// and examples/ included) or of the benchmark/ module. Code that only
// tests reach is code the program does not run, so deleting it moves no
// output. References resolve through go/types, so a dead declaration
// cannot hide behind a live one of the same name.
//
// A reference from inside the declaration itself does not count: a
// recursive call, or a method's receiver naming its type. (Two dead
// helpers that call each other still pass; the sweep reads references,
// not reachability.) A method also counts as used when its type
// implements an interface that declares it, whether the interface is
// declared in non-test code or in an imported package: error,
// fmt.Stringer, json.Marshaler, sort.Interface and heap.Interface reach
// methods that no call site names, and so do the unnamed interfaces of
// errorsIfaces. Neither init nor a command's main needs a reference.

// errorsIfaces are the interfaces package errors asserts inside Is, As
// and Unwrap without naming them.
var errorsIfaces = []string{
	"interface{ Unwrap() error }",
	"interface{ Unwrap() []error }",
	"interface{ Is(error) bool }",
	"interface{ As(any) bool }",
}

// unusedExempt is the test support kept on purpose under internal/:
// other packages' tests call it, and the sweep reads no test file.
var unusedExempt = []struct{ decl, reason string }{
	{"internal/clock.NewStepped", "tests of the daemon and the round loop drive their rounds on a stepped clock"},
	{"internal/clock.Stepped.Set", "tests of the stepped clock and the daemon jump it to a chosen instant"},
	{"internal/clock.Stepped.Advance", "tests of the daemon release a waiting round by advancing the stepped clock"},
	{"internal/sched/schedtest.Wrap", "sim and policy tests check every round's assignment through it"},
	{"internal/sched/schedtest.MatchRebuilt", "sim and server tests check Arena's fed launch FIFOs against a twin that refiles the queue"},
	{"internal/sched/schedtest.MatchDropped", "sim tests check that the policies' kept state is invisible to their decisions"},
}

// declKey names a package-level declaration apart from the load that
// type-checked it: this module and benchmark/ load separately, so one
// declaration is an object in each load.
type declKey struct {
	pkg  string // import path
	recv string // the receiver's type name; "" unless a method
	name string
}

func (k declKey) String() string {
	s := strings.TrimPrefix(k.pkg, ModulePath+"/")
	if k.recv != "" {
		s += "." + k.recv
	}
	return s + "." + k.name
}

// keyOf returns obj's key, or false for anything but a package-level
// object or a method.
func keyOf(obj types.Object) (declKey, bool) {
	if obj.Pkg() == nil {
		return declKey{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return declKey{pkg: o.Pkg().Path(), name: o.Name()}, true
		}
		if named := recvNamed(o); named != nil {
			return declKey{pkg: o.Pkg().Path(), recv: named.Obj().Name(), name: o.Name()}, true
		}
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return declKey{pkg: obj.Pkg().Path(), name: obj.Name()}, true
		}
	}
	return declKey{}, false
}

// recvNamed returns the named type a method is declared on, or nil for
// a method of an interface literal.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}

// unusedDecl is a declaration that no non-test file references.
type unusedDecl struct {
	key declKey
	pos token.Position
}

// findUnused returns, sorted by key, the declarations in non-test files
// of the units whose import path inScope accepts that no non-test file
// of any unit references. The units may come from several loads.
func findUnused(units []*Package, inScope func(importPath string) bool) []unusedDecl {
	used := map[declKey]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, src := range errorsIfaces {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		addIface(tv.Type)
	}

	// Every non-generic named interface of the packages the units
	// import, transitively: the standard library's among them.
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					addIface(named)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}

	// mark records the references in the nodes of the declaration of
	// names, leaving out references to those names. It also collects the
	// interface types the nodes spell out.
	mark := func(info *types.Info, names []*ast.Ident, nodes ...ast.Node) {
		own := map[declKey]bool{}
		for _, id := range names {
			if obj := info.Defs[id]; obj != nil {
				if k, ok := keyOf(obj); ok {
					own[k] = true
				}
			}
		}
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					addIface(info.Types[n].Type)
				case *ast.Ident:
					if obj := info.Uses[n]; obj != nil {
						if k, ok := keyOf(obj); ok && !own[k] {
							used[k] = true
						}
					}
				}
				return true
			})
		}
	}

	type candidate struct {
		unusedDecl
		obj types.Object
	}
	var decls []candidate
	for _, pkg := range units {
		for _, imp := range pkg.Pkg.Imports() {
			visit(imp)
		}
		scoped := inScope(pkg.ImportPath)
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			info := pkg.TypesInfo
			var names []*ast.Ident // declared by this file
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A method's receiver does not use its type.
					own := []*ast.Ident{d.Name}
					mark(info, own, d.Type)
					if d.Body != nil {
						mark(info, own, d.Body)
					}
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Pkg.Name() == "main")
					if !entry {
						names = append(names, d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							mark(info, []*ast.Ident{s.Name}, s)
							names = append(names, s.Name)
						case *ast.ValueSpec:
							mark(info, s.Names, s)
							names = append(names, s.Names...)
						}
					}
				}
			}
			if !scoped {
				continue
			}
			for _, id := range names {
				obj := info.Defs[id]
				if obj == nil || id.Name == "_" {
					continue
				}
				if k, ok := keyOf(obj); ok {
					decls = append(decls, candidate{unusedDecl{k, pkg.Fset.Position(id.Pos())}, obj})
				}
			}
		}
	}

	var out []unusedDecl
	for _, d := range decls {
		if used[d.key] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && d.key.recv != "" && viaInterface(fn, ifaces[fn.Name()]) {
			continue
		}
		out = append(out, d.unusedDecl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.String() < out[j].key.String() })
	return out
}

// viaInterface reports whether fn's type implements one of ifaces, each
// of which declares a method of fn's name.
func viaInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// applyExempt drops the findings whose name an exemption lists and
// returns what is left, plus every exemption that matched nothing.
func applyExempt[T any](found []T, name func(T) string, exempt []string) (left []T, stale []string) {
	hit := map[string]bool{}
	for _, e := range exempt {
		hit[e] = false
	}
	for _, d := range found {
		if _, ok := hit[name(d)]; ok {
			hit[name(d)] = true
		} else {
			left = append(left, d)
		}
	}
	for _, e := range exempt {
		if !hit[e] {
			stale = append(stale, e)
		}
	}
	return left, stale
}

func unusedName(d unusedDecl) string { return d.key.String() }

// loadTwice type-checks testdata/<dir>/lib under libPath with its test
// file, and testdata/<dir>/second, standing in for a second module,
// against its own load of lib from source, so that the two loads'
// objects differ and meet only through their keys.
func loadTwice(t *testing.T, dir, libPath string) (lib, second *Package) {
	t.Helper()
	ld := fixtureLoader(t)
	libDir := filepath.Join("testdata", dir, "lib")
	lib, err := ld.check(libPath, libDir, goFilesIn(t, libDir))
	if err != nil {
		t.Fatal(err)
	}
	ld2 := &moduleLoader{
		fset:    ld.fset,
		byPath:  map[string]*listedPackage{libPath: {ImportPath: libPath, Dir: libDir, GoFiles: []string{"lib.go"}}},
		checked: map[string]*types.Package{},
		gc:      ld,
	}
	secondDir := filepath.Join("testdata", dir, "second")
	second, err = ld2.check(ModulePath+"/benchmark", secondDir, goFilesIn(t, secondDir))
	if err != nil {
		t.Fatal(err)
	}
	if second.Pkg.Imports()[0] == lib.Pkg {
		t.Fatal("the second package must import its own load of the fixture")
	}
	return lib, second
}

// TestUnusedSweep fails on every declaration under internal/ that only
// tests reference.
func TestUnusedSweep(t *testing.T) {
	found := findUnused(sweepUnits(t), func(path string) bool {
		return strings.HasPrefix(path, ModulePath+"/internal/")
	})

	var exempt []string
	for _, e := range unusedExempt {
		if e.reason == "" {
			t.Errorf("exemption %s has no reason", e.decl)
		}
		exempt = append(exempt, e.decl)
	}
	left, stale := applyExempt(found, unusedName, exempt)
	for _, e := range stale {
		t.Errorf("exemption %s exempts nothing: delete it", e)
	}
	for _, d := range left {
		t.Errorf("%s: %s has no reference outside tests", d.pos, d.key)
	}
}

// TestUnusedFixture shows what the sweep flags and what it passes. The
// fixture package loads twice: once with its test file, as the module
// under the sweep, and once from source as the dependency of a second
// package standing in for a second module.
func TestUnusedFixture(t *testing.T) {
	libPath := ModulePath + "/internal/unusedfix"
	lib, other := loadTwice(t, "unused", libPath)

	inScope := func(path string) bool { return path == libPath }
	var diags []Diagnostic
	for _, d := range findUnused([]*Package{lib, other}, inScope) {
		diags = append(diags, Diagnostic{Analyzer: "unused", Pos: d.pos, Message: d.key.String() + " has no reference outside tests"})
	}
	matchWants(t, lib, diags)

	// Without the second package, its callee is flagged too.
	var alone []string
	for _, d := range findUnused([]*Package{lib}, inScope) {
		alone = append(alone, d.key.name)
	}
	if got := strings.Join(alone, " "); got != "Remote TestOnly leftover" {
		t.Errorf("fixture alone flags %q, want %q", got, "Remote TestOnly leftover")
	}

	// An exemption takes its declaration off the list; one that
	// matches nothing is reported.
	left, stale := applyExempt(findUnused([]*Package{lib, other}, inScope), unusedName,
		[]string{"internal/unusedfix.TestOnly", "internal/unusedfix.Remote"})
	if len(left) != 1 || left[0].key.name != "leftover" {
		t.Errorf("after exempting TestOnly, left = %v, want leftover alone", left)
	}
	if fmt.Sprint(stale) != "[internal/unusedfix.Remote]" {
		t.Errorf("stale exemptions = %v, want [internal/unusedfix.Remote]", stale)
	}
}
