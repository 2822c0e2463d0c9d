package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StableSort polices unstable sorts in determinism-critical packages.
// sort.Slice's pdqsort picks an arbitrary survivor among elements that
// compare equal: deterministic for one Go release and one input order,
// but an artifact — the PR 5 planner-frontier bug, where metric ties
// let the sort algorithm choose which candidate survived (observed
// non-first in two thirds of the tie-heavy matrix's tie groups).
//
// A sort.Slice call is accepted only when its less function is a
// tie-break comparator chain the analyzer can see is total-order
// *shaped*: one or more guards of the form
//
//	if keyA != keyB { return keyA < keyB }   (or >)
//
// followed by a final `return lastA < lastB` (or >). The chain proves
// the author enumerated the tie-break keys down to a final
// discriminator; a single bare comparison (`return a.load > b.load`)
// proves nothing and is flagged. The analyzer cannot prove the final
// key is unique — that stays the author's obligation; when the chain
// shape cannot express it (e.g. comparing through a helper), use
// sort.SliceStable so ties preserve a deterministic input order, or
// suppress with //arena:allow stablesort <why the order is total>.
//
// slices.SortFunc is pdqsort too, and its cmp func returns an int, so
// no comparator shape proves it total: every call is flagged, pointing
// to slices.SortStableFunc, a sort.Slice tie-break chain, or a reasoned
// //arena:allow stablesort.
var StableSort = &Analyzer{
	Name: "stablesort",
	Doc: "report sort.Slice calls whose less func is not a visible tie-break chain, and every slices.SortFunc; " +
		"use sort.SliceStable, slices.SortStableFunc or a rank-extended total-order comparator",
	Scope: []string{
		"internal/sched", "internal/sim", "internal/planner",
		"internal/faults", "internal/trace", "internal/evalcache",
		"internal/server",
	},
	SkipTests: true,
	Run:       runStableSort,
}

func runStableSort(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			fun := call.Fun
			switch ix := fun.(type) {
			case *ast.IndexExpr: // slices.SortFunc[[]T](...)
				fun = ix.X
			case *ast.IndexListExpr: // slices.SortFunc[[]T, T](...)
				fun = ix.X
			}
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			switch {
			case obj.Pkg().Path() == "slices" && obj.Name() == "SortFunc":
				pass.Reportf(call.Pos(),
					"slices.SortFunc is unstable: equal elements get an arbitrary order; use slices.SortStableFunc, a sort.Slice tie-break chain, or //arena:allow stablesort <why the order is total>")
				return true
			case obj.Pkg().Path() != "sort" || obj.Name() != "Slice":
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				pass.Reportf(call.Pos(),
					"sort.Slice with an opaque less func: the analyzer cannot prove a total order; use sort.SliceStable or inline a tie-break comparator chain")
				return true
			}
			if !isTieBreakChain(lit.Body) {
				pass.Reportf(call.Pos(),
					"sort.Slice without a tie-break chain: equal elements get an arbitrary order; use sort.SliceStable or extend the comparator to a total order")
			}
			return true
		})
	}
	return nil
}

// isTieBreakChain reports whether a less-func body has the shape
//
//	[ a, b := s[i], s[j] ]  { if a != b { return a < b } }+  ;  return x < y
//
// Leading short variable declarations (binding the two operands) are
// allowed. Guard conditions must be != (a chain written with < guards
// is accepted too when each guard's body is a bare `return true/false`
// — the expanded two-sided idiom). A body with no guard before the
// final comparison is not a chain.
func isTieBreakChain(body *ast.BlockStmt) bool {
	stmts := body.List
	for len(stmts) > 0 {
		as, ok := stmts[0].(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			break
		}
		stmts = stmts[1:]
	}
	if len(stmts) < 2 {
		return false
	}
	for _, st := range stmts[:len(stmts)-1] {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Init != nil || ifs.Else != nil {
			return false
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch cond.Op {
		case token.NEQ:
			// Body must be a single return of a strict comparison.
			if !isComparisonReturn(ifs.Body) {
				return false
			}
		case token.LSS, token.GTR:
			// Two-sided expansion: `if a < b { return true }`.
			if !isBoolReturn(ifs.Body) {
				return false
			}
		default:
			return false
		}
	}
	ret, ok := stmts[len(stmts)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	return isStrictComparison(ret.Results[0])
}

func isComparisonReturn(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	return ok && len(ret.Results) == 1 && isStrictComparison(ret.Results[0])
}

func isBoolReturn(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	id, ok := ret.Results[0].(*ast.Ident)
	return ok && (id.Name == "true" || id.Name == "false")
}

// isStrictComparison accepts `x < y` and `x > y`. <= and >= are
// rejected everywhere: a non-strict less func violates sort's contract
// outright (it makes less(a, a) true).
func isStrictComparison(e ast.Expr) bool {
	b, ok := e.(*ast.BinaryExpr)
	return ok && (b.Op == token.LSS || b.Op == token.GTR)
}
