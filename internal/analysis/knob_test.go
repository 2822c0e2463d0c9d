package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// The knob sweep: every exported field of an exported struct type
// declared in a non-test file under internal/ needs a write from a
// non-test file of this module or of the benchmark/ module, and not only
// its constructor's. A field that nothing but tests writes is an option
// no run sets. A field whose every write is an element of a composite
// literal inside a top-level New… function, always one constant, is a
// constant that reads like a choice. Either way every run takes one
// value, and a library caller who sets the field runs a program that no
// command, experiment or benchmark runs.
//
// A write is an assignment (=, op= or ++/--) whose target selects the
// field, taking the field's address, or a keyed or positional element of
// a composite literal. Fields are matched across the two loads by the
// source position of their declaration.

// knobExempt are the settable fields kept on purpose.
var knobExempt = []struct{ field, reason string }{
	{"internal/sched.ArenaPolicy.PromoteAfter", "the priority fix decides the promotion rule; TestArenaPriorityPromotion and FuzzLaunchMerge vary it, 0 included"},
	{"internal/sched/schedtest.Options.Profiled", "test support: policy tests set it, and benchmark/ checks rounds with the zero Options"},
	{"internal/sched/schedtest.Options.RequirePow2", "test support: policy tests set it, and benchmark/ checks rounds with the zero Options"},
}

// knob is a field the sweep flags, with the write that alone sets it
// (the zero fieldWrite when nothing does).
type knob struct {
	name string // import path without the module prefix, type and field
	pos  token.Position
	fieldWrite
}

func (k knob) message() string {
	if k.ctor == "" {
		return k.name + " is never set outside tests"
	}
	return k.name + " is set only by " + k.ctor + ", always to " + k.val.String()
}

func knobName(k knob) string { return k.name }

// fieldWrite is one write of a field in a non-test file.
type fieldWrite struct {
	ctor string         // the New… function whose literal element it is; "" otherwise
	val  constant.Value // the element's constant value; nil when it has none
}

// findKnobs returns, sorted by name, the exported fields of exported
// struct types declared in non-test files of the units inScope accepts
// that no non-test file of any unit writes, or that only literal
// elements inside New… functions write, all with one constant value.
func findKnobs(units []*Package, inScope func(importPath string) bool) []knob {
	declared := map[string]knob{} // by declaration position
	writes := map[string][]fieldWrite{}
	for _, pkg := range units {
		info := pkg.TypesInfo
		at := func(obj types.Object) string { return pkg.Fset.Position(obj.Pos()).String() }
		record := func(target ast.Expr) {
			sel, ok := ast.Unparen(target).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				writes[at(s.Obj())] = append(writes[at(s.Obj())], fieldWrite{})
			}
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, d := range f.Decls {
				ctor := ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "New") {
					ctor = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							record(lhs)
						}
					case *ast.IncDecStmt:
						record(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							record(n.X)
						}
					case *ast.CompositeLit:
						t := info.TypeOf(n) // *T for an element of a []*T literal that elides &T
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							fld, val := st.Field(i), elt
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								fld, val = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
							}
							writes[at(fld)] = append(writes[at(fld)], fieldWrite{ctor: ctor, val: info.Types[val].Value})
						}
					}
					return true
				})

				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE || !inScope(pkg.ImportPath) {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if fld := st.Field(i); fld.Exported() {
							name := strings.TrimPrefix(pkg.ImportPath, ModulePath+"/") + "." + ts.Name.Name + "." + fld.Name()
							declared[at(fld)] = knob{name: name, pos: pkg.Fset.Position(fld.Pos())}
						}
					}
				}
			}
		}
	}

	var out []knob
	for at, k := range declared {
		if ws := writes[at]; len(ws) > 0 {
			if !oneCtorConstant(ws) {
				continue
			}
			k.fieldWrite = ws[0]
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// oneCtorConstant reports whether every write is a literal element
// inside a New… function, all with one constant value.
func oneCtorConstant(ws []fieldWrite) bool {
	for _, w := range ws {
		if w.ctor == "" || w.val == nil || w.val.ExactString() != ws[0].val.ExactString() {
			return false
		}
	}
	return true
}

// TestKnobSweep fails on every exported field under internal/ that no
// production code sets, or that only its constructor sets, always to
// one constant.
func TestKnobSweep(t *testing.T) {
	found := findKnobs(sweepUnits(t), func(path string) bool {
		return strings.HasPrefix(path, ModulePath+"/internal/")
	})
	var exempt []string
	for _, e := range knobExempt {
		if e.reason == "" {
			t.Errorf("exemption %s has no reason", e.field)
		}
		exempt = append(exempt, e.field)
	}
	left, stale := applyExempt(found, knobName, exempt)
	for _, e := range stale {
		t.Errorf("exemption %s exempts nothing: delete it", e)
	}
	for _, k := range left {
		t.Errorf("%s: %s", k.pos, k.message())
	}
}

// TestKnobFixture shows what the knob sweep flags and what it passes, on
// a fixture loaded the way TestUnusedFixture loads its own.
func TestKnobFixture(t *testing.T) {
	libPath := ModulePath + "/internal/knobfix"
	lib, other := loadTwice(t, "knob", libPath)

	inScope := func(path string) bool { return path == libPath }
	var diags []Diagnostic
	for _, k := range findKnobs([]*Package{lib, other}, inScope) {
		diags = append(diags, Diagnostic{Analyzer: "knob", Pos: k.pos, Message: k.message()})
	}
	matchWants(t, lib, diags)

	// Without the second package, the field only it sets is flagged too.
	var alone []string
	for _, k := range findKnobs([]*Package{lib}, inScope) {
		alone = append(alone, strings.TrimPrefix(k.name, "internal/knobfix."))
	}
	if got := strings.Join(alone, " "); got != "Knobs.Fixed Knobs.Remote Knobs.Unset" {
		t.Errorf("fixture alone flags %q, want %q", got, "Knobs.Fixed Knobs.Remote Knobs.Unset")
	}

	// An exemption takes its field off the list; one that matches
	// nothing is reported.
	left, stale := applyExempt(findKnobs([]*Package{lib, other}, inScope), knobName,
		[]string{"internal/knobfix.Knobs.Unset", "internal/knobfix.Knobs.Remote"})
	if len(left) != 1 || left[0].name != "internal/knobfix.Knobs.Fixed" {
		t.Errorf("after exempting Unset, left = %v, want Fixed alone", left)
	}
	if len(stale) != 1 || stale[0] != "internal/knobfix.Knobs.Remote" {
		t.Errorf("stale exemptions = %v, want [internal/knobfix.Knobs.Remote]", stale)
	}
}
