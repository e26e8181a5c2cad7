package lint

import (
	"go/ast"
)

// CtxFirst enforces the session-API context conventions: in the public
// packages (fastreg and the session-facing internal ones), an exported
// function or method taking a context.Context must take it as the
// first parameter, and no struct anywhere may store a context.Context
// in a field (contexts are call-scoped; storing one hides cancellation
// wiring and outlives its deadline).
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context must be the first parameter of exported APIs and never a struct field",
	Run:  runCtxFirst,
}

// ctxFirstPkgs are the packages whose exported signatures are held to
// the ctx-first rule (the struct-field rule applies everywhere).
var ctxFirstPkgs = map[string]bool{
	"fastreg":                    true,
	"fastreg/internal/transport": true,
	"fastreg/internal/netsim":    true,
}

func runCtxFirst(pass *Pass) error {
	if ctxFirstPkgs[pass.Pkg.Path()] {
		forEachFunc(pass, func(fd *ast.FuncDecl) {
			if !fd.Name.IsExported() {
				return
			}
			checkCtxParams(pass, fd.Name.Name, fd.Type)
		})
		// Exported interface methods are API surface too.
		forEachType(pass, func(_ *ast.GenDecl, ts *ast.TypeSpec) {
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok || !ts.Name.IsExported() {
				return
			}
			for _, m := range it.Methods.List {
				ft, ok := m.Type.(*ast.FuncType)
				if !ok {
					continue // embedded interface
				}
				for _, name := range m.Names {
					if name.IsExported() {
						checkCtxParams(pass, ts.Name.Name+"."+name.Name, ft)
					}
				}
			}
		})
	}

	forEachType(pass, func(_ *ast.GenDecl, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			if t := pass.Info.TypeOf(f.Type); t != nil && isContextType(t) {
				pass.Reportf(f.Pos(), "struct %s stores a context.Context: contexts are call-scoped, pass them as the first parameter instead", ts.Name.Name)
			}
		}
	})
	return nil
}

func checkCtxParams(pass *Pass, name string, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, f := range ft.Params.List {
		t := pass.Info.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		if t != nil && isContextType(t) && idx != 0 {
			pass.Reportf(f.Pos(), "%s takes a context.Context at parameter %d: context must be the first parameter", name, idx)
		}
		idx += n
	}
}
