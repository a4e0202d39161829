package framework

import (
	"go/ast"
	"go/types"
)

// CallGraph is a conservative static call graph over one package's own
// function and method declarations. Nodes are the package's *types.Func
// declarations; function literals are folded into the lexically
// enclosing declaration (a closure runs on whatever path its maker
// runs on). Edges cover:
//
//   - direct calls and references: any use of an in-package function or
//     method object inside a body — a call, a method value, a function
//     passed as an argument — is an edge, so work handed to an executor
//     (pool.Run, go statements) stays in the graph;
//   - interface dispatch: a call through an interface-typed receiver
//     adds edges to every in-package method that implements it, found
//     by checking the package's named types against the interface;
//   - method sets: passing or converting a value of an in-package named
//     type to an interface parameter adds edges to the methods the
//     interface demands of it (e.g. handing &eventHeap to
//     container/heap reaches Push/Pop/Less/Swap/Len).
//
// Dynamic calls through plain func-typed fields and variables are not
// resolved; hot paths reached only that way carry their own
// //pfsim:hotpath roots (the convention the hotalloc analyzer
// documents). The graph is per-package: cross-package callees are not
// nodes, so each package annotates its own hot entry points.
type CallGraph struct {
	pkg   *types.Package
	funcs []*types.Func                 // declared functions, declaration order
	decls map[*types.Func]*ast.FuncDecl // declaration of each node
	edges map[*types.Func][]*types.Func // deduped callees, first-use order
}

// NewCallGraph builds the call graph for one type-checked package.
func NewCallGraph(files []*ast.File, pkg *types.Package, info *types.Info) *CallGraph {
	cg := &CallGraph{
		pkg:   pkg,
		decls: map[*types.Func]*ast.FuncDecl{},
		edges: map[*types.Func][]*types.Func{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.funcs = append(cg.funcs, fn)
			cg.decls[fn] = fd
		}
	}
	ifaces := packageNamedTypes(pkg)
	for _, fn := range cg.funcs {
		cg.collectEdges(fn, cg.decls[fn], info, ifaces)
	}
	return cg
}

// packageNamedTypes lists the package-scope named types in scope order —
// the candidate implementers for interface-dispatch resolution.
func packageNamedTypes(pkg *types.Package) []*types.Named {
	var named []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() { // Names is sorted: deterministic
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && !tn.IsAlias() {
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	return named
}

// collectEdges walks one declaration's body (function literals included)
// and records every reachable in-package function.
func (cg *CallGraph) collectEdges(fn *types.Func, decl *ast.FuncDecl, info *types.Info, named []*types.Named) {
	if decl.Body == nil {
		return
	}
	seen := map[*types.Func]bool{}
	add := func(callee *types.Func) {
		if callee == nil || callee == fn || seen[callee] {
			return
		}
		if _, inPkg := cg.decls[callee]; !inPkg {
			return
		}
		seen[callee] = true
		cg.edges[fn] = append(cg.edges[fn], callee)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if callee, ok := info.Uses[n].(*types.Func); ok {
				add(callee)
			}
		case *ast.CallExpr:
			// Interface dispatch: x.M() with interface-typed x reaches
			// every in-package implementation of M.
			if se, ok := n.Fun.(*ast.SelectorExpr); ok {
				if callee, ok := info.Uses[se.Sel].(*types.Func); ok {
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
						if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
							for _, impl := range implementations(iface, callee.Name(), named, cg.pkg) {
								add(impl)
							}
						}
					}
				}
			}
			// Method sets: a concrete in-package value passed where an
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
					for _, m := range methodSetIn(at, iface, cg.pkg) {
						add(m)
					}
				}
			}
		}
		return true
	})
}

// callSignature resolves a call expression's signature, nil for builtins
// and type conversions.
func callSignature(call *ast.CallExpr, info *types.Info) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramType returns the type of parameter i, unrolling the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return types.Typ[types.Invalid]
}

// implementations finds the in-package concrete methods named name on
// types satisfying iface.
func implementations(iface *types.Interface, name string, named []*types.Named, pkg *types.Package) []*types.Func {
	var impls []*types.Func
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		if !types.Implements(nt, iface) && !types.Implements(types.NewPointer(nt), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt), true, pkg, name)
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	return impls
}

// methodSetIn returns t's in-package methods that iface demands, for a
// concrete (non-interface) t handed to an interface parameter.
func methodSetIn(t types.Type, iface *types.Interface, pkg *types.Package) []*types.Func {
	if types.IsInterface(t) {
		return nil
	}
	var ms []*types.Func
	for i := 0; i < iface.NumMethods(); i++ {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, iface.Method(i).Name())
		if m, ok := obj.(*types.Func); ok && m.Pkg() == pkg {
			ms = append(ms, m)
		}
	}
	return ms
}

// FuncName renders a function or method the way diagnostics name them:
// "fixFlow", "Net.flushWork".
func FuncName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// Funcs returns the package's declared functions in declaration order.
func (cg *CallGraph) Funcs() []*types.Func { return cg.funcs }

// DeclOf returns the declaration node of an in-package function, nil for
// functions outside the graph.
func (cg *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl { return cg.decls[fn] }

// Reachable computes the closure of roots over the edges, skipping any
// function prune reports true for (pruned functions are neither visited
// nor traversed). The result maps each reached function to the root it
// was first reached from — BFS over roots in order, so attribution is
// deterministic — roots included, mapped to themselves.
func (cg *CallGraph) Reachable(roots []*types.Func, prune func(*types.Func) bool) map[*types.Func]*types.Func {
	reached := map[*types.Func]*types.Func{}
	type item struct{ fn, root *types.Func }
	var queue []item
	for _, r := range roots {
		if prune != nil && prune(r) {
			continue
		}
		if _, ok := reached[r]; ok {
			continue
		}
		reached[r] = r
		queue = append(queue, item{r, r})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, callee := range cg.edges[it.fn] {
			if _, ok := reached[callee]; ok {
				continue
			}
			if prune != nil && prune(callee) {
				continue
			}
			reached[callee] = it.root
			queue = append(queue, item{callee, it.root})
		}
	}
	return reached
}
