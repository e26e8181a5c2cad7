package lint

import (
	"go/ast"
	"go/types"
)

// All returns the full fastreg analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PooledAlias,
		CtxFirst,
		ShardLock,
		NilRecv,
		CaptureOrder,
		FrozenSlice,
	}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names []string) []*Analyzer {
	var out []*Analyzer
	for _, n := range names {
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// shared type/AST helpers

// calleeFunc resolves the called function object of a call, if any
// (package function, method, or local func value it can see through).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.ObjectOf(fun).(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pass.ObjectOf(fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(pass, call)
	return f != nil && f.Name() == name && f.Pkg() != nil &&
		f.Pkg().Path() == pkgPath && f.Type().(*types.Signature).Recv() == nil
}

// methodCallName returns the selector name of a method-style call
// ("conn.SendBatch(...)" -> "SendBatch"), or "".
func methodCallName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// identVar resolves a bare identifier expression to its *types.Var.
func identVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.ObjectOf(id).(*types.Var)
	return v
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.ObjectOf(id) == types.Universe.Lookup("nil")
}

// isDeferOrGo reports whether the unit is a defer or go statement
// (executed at a different time than its program point).
func isDeferOrGo(u unit) bool {
	switch u.node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return true
	}
	return false
}
