package lint

import (
	"go/ast"
	"go/types"
)

// FrozenSlice enforces `// frozen:` annotations on slice- and
// pointer-typed struct fields (the valuevector of opkit.VectorServer, the
// valQueue of opkit.ReaderState, the current value of opkit.StoreServer
// and VectorServer): the slice or value a frozen field holds has been
// handed to other owners — a reply, a request in flight — so the field may
// be assigned as a whole (`s.vec = v` publishes a new slice, `s.cur = &v`
// a new value) but nothing may be written through it. Reported:
//
//   - an assignment, op-assignment or ++/-- whose target is an element of
//     the field or anything reached through one (`s.vec[i] = e`,
//     `s.vec[i].Updated = u`, `s.vec[i].Updated[0] = p`);
//   - the same whose target is the value a pointer field points at or
//     anything reached through it (`*s.cur = v`, `s.cur.Data = d`,
//     `s.cur.Tag.TS++`);
//   - the field, or a two-index slice of it, as the first argument of
//     append, which writes into spare capacity (`s.vec[:n:n]`, clipped to
//     its length, always copies and is allowed);
//   - the field, or any slice of it, as the destination of copy.
//
// The check is syntactic and per package: it sees the field named at the
// write, not a local alias of it (`v := s.vec; v[0] = e`, `p := s.cur;
// p.Data = d`), a callee that writes through its parameter, nor a method
// with a pointer receiver called on the pointee.
var FrozenSlice = &Analyzer{
	Name: "frozenslice",
	Doc:  "slice and pointer fields annotated `// frozen:` may be reassigned but never written through",
	Run:  runFrozenSlice,
}

func runFrozenSlice(pass *Pass) error {
	frozen := make(map[*types.Var]bool)
	forEachType(pass, func(_ *ast.GenDecl, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			if _, ok := fieldDirective(f, "frozen"); !ok {
				continue
			}
			for _, name := range f.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok {
					frozen[v] = true
				}
			}
		}
	})
	if len(frozen) == 0 {
		return nil
	}
	// frozenField resolves e to the frozen field it names, if it does.
	frozenField := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v := selectedField(pass, sel); v != nil && frozen[v] {
				return v
			}
		}
		return nil
	}
	isPointer := func(v *types.Var) bool {
		_, ok := v.Type().Underlying().(*types.Pointer)
		return ok
	}
	// frozenPointer resolves e to the frozen pointer field it names, if it
	// does: selecting through one dereferences it.
	frozenPointer := func(e ast.Expr) *types.Var {
		if v := frozenField(e); v != nil && isPointer(v) {
			return v
		}
		return nil
	}
	// throughElement reports the frozen field when e designates one of its
	// elements, the value it points at, or something reached through one.
	throughElement := func(e ast.Expr) *types.Var {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if v := frozenPointer(x.X); v != nil {
					return v
				}
				e = x.X
			case *ast.StarExpr:
				if v := frozenField(x.X); v != nil {
					return v
				}
				e = x.X
			case *ast.IndexExpr:
				if v := frozenField(x.X); v != nil {
					return v
				}
				e = x.X
			case *ast.SliceExpr:
				if v := frozenField(x.X); v != nil {
					return v
				}
				e = x.X
			default:
				return nil
			}
		}
	}
	checkTarget := func(e ast.Expr) {
		if v := throughElement(e); v != nil {
			what := "slice"
			if isPointer(v) {
				what = "value"
			}
			pass.Reportf(e.Pos(), "write through frozen field %s: build a new %s and assign the field", v.Name(), what)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkTarget(lhs)
				}
			case *ast.IncDecStmt:
				checkTarget(n.X)
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || len(n.Args) == 0 {
					return true
				}
				arg := ast.Unparen(n.Args[0])
				sl, sliced := arg.(*ast.SliceExpr)
				if sliced {
					arg = sl.X
				}
				v := frozenField(arg)
				if v == nil {
					return true
				}
				switch pass.ObjectOf(id) {
				case types.Universe.Lookup("append"):
					if sliced && sl.Slice3 && sl.High != nil && sl.Max != nil && types.ExprString(sl.High) == types.ExprString(sl.Max) {
						return true // clipped to its length: append must copy
					}
					pass.Reportf(n.Pos(), "append to frozen field %s can write into its spare capacity: clip it (s[:n:n]) or build a new slice", v.Name())
				case types.Universe.Lookup("copy"):
					pass.Reportf(n.Pos(), "copy into frozen field %s: build a new slice and assign the field", v.Name())
				}
			}
			return true
		})
	}
	return nil
}
