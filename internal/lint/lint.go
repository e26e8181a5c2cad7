// Package lint is fastreg's in-tree static-analysis framework: a small,
// dependency-free reimplementation of the go/analysis idiom (Analyzer,
// Pass, Diagnostic) plus the repo-specific machinery the analyzers
// share — annotation directives, //lint:ignore suppression, and a
// statement-level control-flow graph (cfg.go) for the dataflow checks.
//
// The framework is deliberately stdlib-only: the build environment has
// no module proxy, so golang.org/x/tools is unavailable. Packages are
// loaded through `go list -export` and type-checked with go/types
// against compiler export data (load.go), which gives every pass a
// fully typed AST without any external dependency.
//
// Directives understood across the suite:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//	    Suppresses matching diagnostics on the same line or the line
//	    below. The reason is mandatory; the driver counts suppressions.
//	// guardedby: <mutexfield>
//	    On a struct field: the field may only be accessed while the
//	    sibling mutex field is held (shardlock).
//	// frozen: <who shares the slice or value>
//	    On a slice- or pointer-typed struct field: the field may be
//	    reassigned but never written through — no element or pointee
//	    assignment, append or copy into it (frozenslice).
//	//lint:consumes <param>
//	    On a function: calling it transfers ownership of the named
//	    slice parameter back to the pool (pooledalias).
//	//lint:returnspooled
//	    On a function: its first result is a pooled slab (pooledalias).
//	//lint:nildisabled
//	    On a type: a nil receiver means "disabled"; exported pointer
//	    methods must nil-guard before touching fields (nilrecv).
//	//lint:captureflush
//	    On a function: every return must be dominated by the capture
//	    hook flush (captureorder, durable-before-visible).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Version identifies the analyzer suite build. It is printed by the
// driver's -V=full handshake (the `go vet -vettool` protocol requires a
// non-"devel" version token) and stamped into fastreg-bench records so
// perf results are attributable to a toolchain.
const Version = "v1.10.0"

// An Analyzer is one named check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectOf resolves an identifier to its object (uses or defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// Result is the outcome of running a set of analyzers over packages.
type Result struct {
	// Diags are the live findings, sorted by position.
	Diags []Diagnostic
	// Suppressed are findings silenced by a //lint:ignore directive.
	Suppressed []Diagnostic
	// BadIgnores are malformed //lint:ignore directives (missing
	// analyzer name or reason) — reported as findings so suppressions
	// always carry an auditable reason.
	BadIgnores []Diagnostic
}

// Run executes every analyzer over every package and applies
// //lint:ignore suppression.
func Run(pkgs []*Package, analyzers []*Analyzer) (Result, error) {
	var res Result
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &all,
			}
			if err := a.Run(pass); err != nil {
				return res, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		ign, bad := collectIgnores(pkg)
		res.BadIgnores = append(res.BadIgnores, bad...)
		n := all[:0]
		for _, d := range all {
			if ign.matches(d) {
				res.Suppressed = append(res.Suppressed, d)
			} else {
				n = append(n, d)
			}
		}
		res.Diags = append(res.Diags, n...)
		all = all[:0]
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	sortDiags(res.BadIgnores)
	return res, nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // the line the directive is written on
	analyzers []string
}

type ignoreSet struct{ ds []ignoreDirective }

// matches reports whether d is suppressed: a directive on the same line
// or the line directly above, naming d's analyzer (or "all").
func (s ignoreSet) matches(d Diagnostic) bool {
	for _, ig := range s.ds {
		if ig.file != d.Pos.Filename {
			continue
		}
		if ig.line != d.Pos.Line && ig.line != d.Pos.Line-1 {
			continue
		}
		for _, a := range ig.analyzers {
			if a == d.Analyzer || a == "all" {
				return true
			}
		}
	}
	return false
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(\s+(.*))?$`)

// collectIgnores parses every //lint:ignore directive in the package.
// Directives without a reason are returned as BadIgnores and do not
// suppress anything.
func collectIgnores(pkg *Package) (ignoreSet, []Diagnostic) {
	var set ignoreSet
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[3]) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  "//lint:ignore needs a reason: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				set.ds = append(set.ds, ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(m[1], ","),
				})
			}
		}
	}
	return set, bad
}

// directive extracts a named //lint:<name> or "// <name>:" directive
// from a comment group, returning its argument text and whether it was
// present. Both comment styles are accepted so struct-field annotations
// can read naturally (`// guardedby: mu`).
func directive(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := c.Text
		if arg, ok := strings.CutPrefix(text, "//lint:"+name); ok {
			if arg == "" || strings.HasPrefix(arg, " ") || strings.HasPrefix(arg, "\t") {
				return strings.TrimSpace(arg), true
			}
			continue
		}
		trimmed := strings.TrimSpace(strings.TrimPrefix(text, "//"))
		if arg, ok := strings.CutPrefix(trimmed, name+":"); ok {
			return strings.TrimSpace(arg), true
		}
	}
	return "", false
}

// funcDirective looks up a directive on a function declaration.
func funcDirective(fd *ast.FuncDecl, name string) (string, bool) {
	return directive(fd.Doc, name)
}

// fieldDirective looks up a directive on a struct field, checking both
// the doc comment above and the trailing line comment.
func fieldDirective(f *ast.Field, name string) (string, bool) {
	if arg, ok := directive(f.Doc, name); ok {
		return arg, true
	}
	return directive(f.Comment, name)
}

// typeDirective looks up a directive on a type declaration: the
// TypeSpec's own doc, its line comment, or the enclosing GenDecl's doc.
func typeDirective(gd *ast.GenDecl, ts *ast.TypeSpec, name string) (string, bool) {
	if arg, ok := directive(ts.Doc, name); ok {
		return arg, true
	}
	if arg, ok := directive(ts.Comment, name); ok {
		return arg, true
	}
	return directive(gd.Doc, name)
}

// forEachFunc invokes f for every function/method declaration with a
// body in the package.
func forEachFunc(pass *Pass, fn func(fd *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// forEachType invokes fn for every type declaration in the package.
func forEachType(pass *Pass, fn func(gd *ast.GenDecl, ts *ast.TypeSpec)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					fn(gd, ts)
				}
			}
		}
	}
}

// funcRegion is one analysis region: a FuncDecl body or a FuncLit body.
// Closures are separate regions because they execute at a different
// time than their enclosing function (e.g. deferred pool releases).
type funcRegion struct {
	decl *ast.FuncDecl // nil for closures
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func (r funcRegion) name() string {
	if r.decl != nil {
		return r.decl.Name.Name
	}
	return "func literal"
}

// regions returns every analysis region in the package: each declared
// function plus each function literal, innermost bodies excluded from
// their parents (the CFG builder never descends into a FuncLit).
func regions(pass *Pass) []funcRegion {
	var out []funcRegion
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		out = append(out, funcRegion{decl: fd, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcRegion{lit: fl, body: fl.Body})
			}
			return true
		})
	})
	return out
}
