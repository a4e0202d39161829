// Package hotalloc flags allocating constructs on annotated hot paths.
//
// ROADMAP item 2's scale target (about a million concurrent flows over
// week-long horizons) requires the solver's steady state — re-solving
// rates, committing accrual, moving the completion event — to run
// without touching the heap allocator: per-event allocation churn turns
// into GC pauses that dominate wall-clock on exactly the long shifting
// workloads the contention studies model. The analyzer enforces that
// discipline at the source level, before a benchmark can regress.
//
// A function whose doc comment carries //pfsim:hotpath is a hot entry
// point. The analyzer takes the package's static call-graph closure of
// those roots (direct calls and references, interface dispatch resolved
// to in-package implementations, method sets of values handed to
// interface parameters — see framework.CallGraph) and reports every
// construct inside it that allocates or may allocate:
//
//   - make and new
//   - append (may grow its backing array)
//   - composite literals that escape (&T{...}) or carry slice/map
//     backing stores
//   - function literals and method values (closure allocation)
//   - string concatenation
//   - fmt.* calls
//   - passing a concrete non-pointer value to an interface parameter
//     (boxing)
//
// The graph is per-package and does not resolve calls through plain
// func-typed fields or variables, so hot code reached only dynamically
// — an event callback fired by the engine loop, for example — must
// carry its own //pfsim:hotpath root.
//
// Two escape hatches, both requiring a written justification by
// convention: a //pfsim:allocok line directive (on or directly above
// the construct) accepts one audited allocation — warm-up growth of a
// reused scratch slice, a bounded pool fill; a //pfsim:allocok doc
// directive on a function prunes the whole function from the closure —
// for audited-cold paths like error reporting that share a caller with
// hot code. panic(...) arguments are exempt: a crash path's allocations
// are free.
//
// The AST view is heuristic in both directions: a flagged composite
// literal may stay on the stack, and a clean-looking &local or value
// stored in an interface variable may still move to the heap. The
// runtime allocation tests (testing.AllocsPerRun in flow, sim, mpi and
// ior) and the whole-run allocation bounds of the root package's
// TestWorkCounters are the ground truth for the paths they drive; the
// analyzer's job is the hot branches they do not.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"pfsim/internal/analysis/framework"
)

// Analyzer flags allocating constructs reachable from //pfsim:hotpath
// roots.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocating constructs in the call-graph closure of //pfsim:hotpath functions; suppress audited allocations with //pfsim:allocok <why>",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	cg := pass.CallGraph()
	var roots []*types.Func
	for _, fn := range cg.Funcs() {
		if len(framework.DocDirectives(cg.DeclOf(fn).Doc, "hotpath")) > 0 {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	dirs := framework.NewDirectives(pass.Fset, pass.Files)
	prune := func(fn *types.Func) bool {
		d := cg.DeclOf(fn)
		return d != nil && len(framework.DocDirectives(d.Doc, "allocok")) > 0
	}
	reached := cg.Reachable(roots, prune)
	for _, fn := range cg.Funcs() {
		root, ok := reached[fn]
		if !ok {
			continue
		}
		checkBody(pass, dirs, cg.DeclOf(fn), root)
	}
	return nil, nil
}

// checkBody reports every allocating construct in one reached
// function's body.
func checkBody(pass *framework.Pass, dirs *framework.Directives, decl *ast.FuncDecl, root *types.Func) {
	if decl.Body == nil {
		return
	}
	from := framework.FuncName(root)
	report := func(pos token.Pos, what, fix string) {
		if dirs.Has(pos, "allocok") {
			return
		}
		pass.Reportf(pos, "%s on the hot path (reached from //pfsim:hotpath %s); %s, or annotate //pfsim:allocok <why>",
			what, from, fix)
	}
	reported := map[ast.Node]bool{} // composite literals already covered by an enclosing &
	callFuns := map[ast.Expr]bool{} // call Fun positions: method uses there are calls, not method values
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callFuns[n.Fun] = true
			if isBuiltin(pass, n.Fun, "panic") {
				return false // crash-path allocations are free
			}
			switch {
			case isBuiltin(pass, n.Fun, "make"):
				report(n.Pos(), "make allocates", "preallocate or reuse scratch")
			case isBuiltin(pass, n.Fun, "new"):
				report(n.Pos(), "new allocates", "preallocate or pool the record")
			case isBuiltin(pass, n.Fun, "append"):
				report(n.Pos(), "append may grow its backing array", "reuse capacity ([:0] scratch)")
			case isFmtCall(pass, n):
				report(n.Pos(), "fmt call allocates", "format off the hot path")
			default:
				checkBoxing(pass, n, report)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					reported[lit] = true
					report(n.Pos(), "composite literal allocates", "hoist or pool the record")
				}
			}
		case *ast.CompositeLit:
			if reported[n] {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "composite literal allocates its backing store", "hoist or reuse scratch")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure", "hoist it to a named function or cached field")
		case *ast.SelectorExpr:
			if callFuns[n] {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				report(n.Pos(), "method value allocates a closure", "cache the bound closure once")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates", "build strings off the hot path")
					}
				}
			}
		}
		return true
	})
}

// checkBoxing reports call arguments whose concrete non-pointer values
// convert to interface parameters. Pointer, function, channel and map
// values fit an interface word without allocating and are exempt.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr, report func(token.Pos, string, string)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, len(call.Args), call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok || atv.Type == nil || atv.IsNil() {
			continue
		}
		switch atv.Type.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
			continue
		}
		report(arg.Pos(), "passing a concrete value to an interface parameter boxes (allocates)", "pass a pointer")
	}
}

// paramType resolves parameter i's type, unrolling the variadic tail
// (unless the call spreads a slice with ...).
func paramType(sig *types.Signature, i, nargs int, ellipsis bool) types.Type {
	params := sig.Params()
	if sig.Variadic() && !ellipsis && i >= params.Len()-1 {
		if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// isBuiltin reports whether the call target is the named builtin.
func isBuiltin(pass *framework.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isFmtCall reports whether the call targets the fmt package.
func isFmtCall(pass *framework.Pass, call *ast.CallExpr) bool {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := se.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "fmt"
}
