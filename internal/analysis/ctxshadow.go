package analysis

import (
	"go/ast"
	"go/types"
)

// CtxShadow rejects any declaration that shadows a context.Context
// parameter in a nested scope — the sim.RunCtx bug class: a round loop
// once declared `ctx := &sched.Context{...}`, shadowing the
// cancellation context, and the cancellation check kept reading the
// right variable only by accident of statement order.
//
// The check runs on go/types, not syntax: a parameter counts as a
// context whatever the import is named (`c "context"`,
// dot-imports, type aliases), and a same-scope reuse like
// `ctx, cancel := context.WithCancel(ctx)` produces no new object so it
// can never be flagged by construction.
//
// A nested function literal's own context.Context parameter is exempt:
// `withRetry(func(ctx context.Context) error {...})` is the callback
// idiom where the callee supplies a derived context on purpose. Every
// other redeclaration — including rebinding the name to another
// context — must rename the local instead.
var CtxShadow = &Analyzer{
	Name: "ctxshadow",
	Doc: "report declarations that shadow a context.Context parameter; " +
		"rename the local so cancellation keeps flowing through the parameter",
	Run: runCtxShadow,
}

func runCtxShadow(pass *Pass) error {
	// Pass 1: collect every parameter object, noting which ones are
	// context.Context-typed.
	ctxParams := make(map[types.Object]bool)
	allParams := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Matching the FuncType node covers declarations, literals
			// and named parameters inside function-type expressions.
			ft, ok := n.(*ast.FuncType)
			if !ok || ft.Params == nil {
				return true
			}
			for _, field := range ft.Params.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					allParams[obj] = true
					if isContextType(obj.Type()) {
						ctxParams[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(ctxParams) == 0 {
		return nil
	}

	// Pass 2: any *other* object defined with the same name inside a
	// context parameter's scope shadows it. go/types scopes make the
	// nesting question exact — no per-statement walk needed.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil || ctxParams[obj] {
				return true
			}
			if _, ok := obj.(*types.Var); !ok {
				return true
			}
			// The callback idiom: a nested function's own
			// context.Context parameter is a deliberate rebind.
			if allParams[obj] && isContextType(obj.Type()) {
				return true
			}
			for param := range ctxParams {
				if param.Name() != obj.Name() {
					continue
				}
				if scopeContains(param.Parent(), obj.Parent()) {
					pass.Reportf(id.Pos(),
						"declaration of %q shadows a context.Context parameter", id.Name)
					break
				}
			}
			return true
		})
	}
	return nil
}

// scopeContains reports whether inner is strictly nested within outer.
func scopeContains(outer, inner *types.Scope) bool {
	if outer == nil || inner == nil {
		return false
	}
	for s := inner.Parent(); s != nil; s = s.Parent() {
		if s == outer {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context (through aliases).
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
