package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Program is the whole loaded package set viewed as one unit. Load
// type-checks the set with shared object identity (see setImporter), so
// a *types.Func declared in internal/sim is the same object at its use
// sites in internal/ior — which is what makes a program-wide call graph
// well-defined. Interprocedural analyzers (taskctx) reach it through
// Pass.Prog; per-package analyzers ignore it.
type Program struct {
	pkgs    []*Package
	byPath  map[string]*Package
	byTypes map[*types.Package]*Package
	dirs    map[*Package]*Directives
	cg      *ProgramCallGraph
	memo    map[string]any
}

// NewProgram assembles a program from packages that were type-checked
// together (one Load call, or one analysistest importer tree).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		byPath:  map[string]*Package{},
		byTypes: map[*types.Package]*Package{},
		dirs:    map[*Package]*Directives{},
		memo:    map[string]any{},
	}
	p.pkgs = append(p.pkgs, pkgs...)
	for _, pkg := range pkgs {
		p.byPath[pkg.ImportPath] = pkg
		p.byTypes[pkg.Types] = pkg
	}
	return p
}

// Packages returns the loaded packages sorted by import path.
func (p *Program) Packages() []*Package { return p.pkgs }

// Package returns the loaded package with the given import path, nil if
// it is not part of the program.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// PackageFor maps a type-checker package back to its loaded Package,
// nil for packages outside the program (the standard library).
func (p *Program) PackageFor(t *types.Package) *Package { return p.byTypes[t] }

// Directives returns the //pfsim: directive index for one package,
// built on first use and shared by every analyzer in the run.
func (p *Program) Directives(pkg *Package) *Directives {
	d := p.dirs[pkg]
	if d == nil {
		d = NewDirectives(pkg.Fset, pkg.Files)
		p.dirs[pkg] = d
	}
	return d
}

// CallGraph returns the program-wide call graph, built on first use.
func (p *Program) CallGraph() *ProgramCallGraph {
	if p.cg == nil {
		p.cg = newProgramCallGraph(p)
	}
	return p.cg
}

// Memo returns the cached value for key, calling build once on first
// use. Interprocedural analyzers run once per package but compute
// program-wide results; Memo lets the first pass pay and the rest read.
// The driver is sequential, so no locking is needed.
func (p *Program) Memo(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// A Node is one function body in the program call graph: either a
// declared function/method (Fn, Decl set) or a function literal (Lit,
// Parent set). Literals are first-class nodes — unlike the per-package
// CallGraph, which folds them into the enclosing declaration — because
// context-sensitivity lives exactly there: a literal launched by a go
// statement runs on its own goroutine, not in its maker's context.
type Node struct {
	Fn   *types.Func   // declared functions; nil for literals
	Decl *ast.FuncDecl // declaration; nil for literals
	Lit  *ast.FuncLit  // literals; nil for declarations
	Pkg  *Package      // the package the body lives in

	// Literal placement metadata, set for Lit nodes only.
	Parent *Node // lexically enclosing node
	// GoCall marks a literal launched directly by a go statement
	// (go func(){...}()): its body runs on the new goroutine, not on
	// the path that spawned it.
	GoCall bool
}

// Body returns the node's function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's source position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Name renders the node for diagnostics: "Net.flushWork" for
// declarations, "func literal in Net.flushWork" for literals.
func (n *Node) Name() string {
	if n.Fn != nil {
		return FuncName(n.Fn)
	}
	top := n
	for top.Parent != nil {
		top = top.Parent
	}
	if top.Fn != nil {
		return "func literal in " + FuncName(top.Fn)
	}
	return "func literal"
}

// ProgramCallGraph is the conservative static call graph over every
// function body in the program, literals included. Edges cover the same
// constructs as the per-package CallGraph — direct calls and
// references, interface dispatch, method-set escapes to interface
// parameters — but resolve across package boundaries, and nested
// function literals are linked to their enclosing node as containment
// edges carrying placement metadata (GoCall) so analyzers
// can choose which closures share their maker's execution context.
// Dynamic calls through func-typed fields and variables remain
// unresolved, the same conservatism the per-package graph documents.
type ProgramCallGraph struct {
	prog    *Program
	nodes   []*Node
	byFn    map[*types.Func]*Node
	byLit   map[*ast.FuncLit]*Node
	callees map[*Node][]*Node // edges to declared-function nodes
	lits    map[*Node][]*Node // containment edges to literal nodes
}

func newProgramCallGraph(prog *Program) *ProgramCallGraph {
	cg := &ProgramCallGraph{
		prog:    prog,
		byFn:    map[*types.Func]*Node{},
		byLit:   map[*ast.FuncLit]*Node{},
		callees: map[*Node][]*Node{},
		lits:    map[*Node][]*Node{},
	}
	// Pass 1: declared nodes, so cross-package references resolve no
	// matter the package order.
	var decls []*Node
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				cg.nodes = append(cg.nodes, n)
				cg.byFn[fn] = n
				decls = append(decls, n)
			}
		}
	}
	// Candidate implementers for interface dispatch, program-wide.
	named := cg.programNamedTypes()
	// Pass 2: edges (creating literal nodes as they are encountered).
	for _, n := range decls {
		if n.Decl.Body != nil {
			cg.walkBody(n, n.Decl.Body, named)
		}
	}
	return cg
}

// programNamedTypes lists package-scope named types across the program
// in (package, scope) order — deterministic because packages are sorted
// by import path and scope names are sorted.
func (cg *ProgramCallGraph) programNamedTypes() []*types.Named {
	var named []*types.Named
	for _, pkg := range cg.prog.pkgs {
		named = append(named, packageNamedTypes(pkg.Types)...)
	}
	return named
}

// walkBody records node's edges: declared-function references (direct
// calls, method values, functions passed as arguments), interface
// dispatch, method-set escapes, and containment edges to nested
// literals. Nested literals are walked recursively as their own nodes.
func (cg *ProgramCallGraph) walkBody(node *Node, body *ast.BlockStmt, named []*types.Named) {
	info := node.Pkg.Info
	seen := map[*Node]bool{}
	add := func(callee *types.Func) {
		target := cg.byFn[callee]
		if target == nil || target == node || seen[target] {
			return
		}
		seen[target] = true
		cg.callees[node] = append(cg.callees[node], target)
	}
	// Placement metadata is discovered on the way down (preorder visits
	// a go statement or call before the literal it launches or carries).
	goCall := map[*ast.FuncLit]bool{}
	skipIdent := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := &Node{
				Lit:    n,
				Pkg:    node.Pkg,
				Parent: node,
				GoCall: goCall[n],
			}
			cg.nodes = append(cg.nodes, lit)
			cg.byLit[n] = lit
			cg.lits[node] = append(cg.lits[node], lit)
			cg.walkBody(lit, n.Body, named)
			return false // the literal owns its body
		case *ast.GoStmt:
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				goCall[fun] = true
			case *ast.Ident:
				// go namedFunc(...): the body runs on the new goroutine,
				// not on this node's path — the go statement itself is
				// what context-discipline analyzers flag.
				skipIdent[fun] = true
			case *ast.SelectorExpr:
				skipIdent[fun.Sel] = true
			}
		case *ast.Ident:
			if skipIdent[n] {
				return true
			}
			if callee, ok := info.Uses[n].(*types.Func); ok {
				add(callee)
			}
		case *ast.CallExpr:
			// Interface dispatch: x.M() with interface-typed x reaches
			// every implementation of M in the program.
			if se, ok := n.Fun.(*ast.SelectorExpr); ok {
				if callee, ok := info.Uses[se.Sel].(*types.Func); ok {
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
						if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
							for _, impl := range cg.implementationsIn(iface, callee.Name(), named) {
								add(impl)
							}
						}
					}
				}
			}
			// Method sets: a concrete program value passed where an
			// interface is expected makes the interface's methods on
			// that type callable by the callee.
			if sig := callSignature(n, info); sig != nil {
				for i, arg := range n.Args {
					pt := paramType(sig, i)
					iface, ok := pt.Underlying().(*types.Interface)
					if !ok || iface.NumMethods() == 0 {
						continue
					}
					at := info.Types[arg].Type
					if at == nil {
						continue
					}
					for _, m := range cg.methodSet(at, iface) {
						add(m)
					}
				}
			}
		}
		return true
	})
}

// implementationsIn finds the concrete methods named name on program
// types satisfying iface.
func (cg *ProgramCallGraph) implementationsIn(iface *types.Interface, name string, named []*types.Named) []*types.Func {
	var impls []*types.Func
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		if !types.Implements(nt, iface) && !types.Implements(types.NewPointer(nt), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt), true, nt.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	return impls
}

// methodSet returns t's program-declared methods that iface demands,
// for a concrete t handed to an interface parameter.
func (cg *ProgramCallGraph) methodSet(t types.Type, iface *types.Interface) []*types.Func {
	if types.IsInterface(t) {
		return nil
	}
	var ms []*types.Func
	for i := 0; i < iface.NumMethods(); i++ {
		obj, _, _ := types.LookupFieldOrMethod(t, true, iface.Method(i).Pkg(), iface.Method(i).Name())
		if m, ok := obj.(*types.Func); ok && cg.byFn[m] != nil {
			ms = append(ms, m)
		}
	}
	return ms
}

// StaticCallee resolves a call expression to the declared function or
// method it statically invokes — through a plain identifier or a
// selector — nil for builtins, conversions, and dynamic calls through
// func values.
func StaticCallee(call *ast.CallExpr, info *types.Info) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Nodes returns every node — declarations in (package, file, order)
// position, literals appended as encountered — a deterministic order.
func (cg *ProgramCallGraph) Nodes() []*Node { return cg.nodes }

// NodeOf returns the node of a declared function, nil for functions
// outside the program.
func (cg *ProgramCallGraph) NodeOf(fn *types.Func) *Node { return cg.byFn[fn] }

// NodeOfLit returns the node of a function literal, nil for literals
// outside the program's walked bodies.
func (cg *ProgramCallGraph) NodeOfLit(lit *ast.FuncLit) *Node { return cg.byLit[lit] }

// Callees returns the declared-function nodes the body references, in
// first-use order.
func (cg *ProgramCallGraph) Callees(n *Node) []*Node { return cg.callees[n] }

// Lits returns the function literals nested directly in the body, in
// source order. Whether a literal shares its maker's execution context
// is policy — callers consult GoCall.
func (cg *ProgramCallGraph) Lits(n *Node) []*Node { return cg.lits[n] }
