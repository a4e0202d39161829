// Package taskctx defines an interprocedural analyzer enforcing the
// task-context discipline the PR 9 engine rewrite rests on.
//
// Workloads execute as inline resumable tasks: the event loop calls
// each parked continuation directly on its own goroutine (see
// sim.Task). That dispatch model is correct only under an invariant the
// compiler cannot see — code reachable from a task continuation must
// never block the calling goroutine or hand work to another one. A
// channel operation, a sync.Mutex held across events, or a re-entrant
// Engine.Run inside a continuation deadlocks or diverges the simulation
// silently; a go statement forks simulated state off the deterministic
// event order.
//
// The analyzer machine-checks the invariant. CPS entry points carry a
// //pfsim:taskctx doc directive (Task.Sleep, Signal.Await, AwaitAll,
// Resource.AcquireTask/UseTask, Engine.Schedule, flow.TransferThen, …);
// every function value passed to an annotated entry point is a task
// continuation, and the closure of bodies reachable from those
// continuations — across package boundaries, through the program call
// graph's literal-level nodes — must be free of:
//
//   - go statements;
//   - channel sends, receives, selects, and ranges over channels;
//   - blocking sync operations (Mutex.Lock, RWMutex.Lock/RLock,
//     WaitGroup.Wait, Cond.Wait);
//   - re-entrant sim.Engine.Run/RunUntil.
//
// Escape hatch: //pfsim:taskctxok with an audited justification on the
// offending line suppresses that one finding.
//
// Closures launched by a go statement are not traversed (the statement
// itself is the finding), and dynamic calls through func-typed fields
// stay invisible — the same conservatism the call graph documents, so
// continuations handed around via variables should be passed directly
// to the primitives where possible.
package taskctx

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"pfsim/internal/analysis/framework"
)

// Analyzer flags blocking constructs reachable from task continuations.
var Analyzer = &framework.Analyzer{
	Name: "taskctx",
	Doc: "flag blocking constructs reachable from inline task continuations\n\n" +
		"Function values passed to //pfsim:taskctx-annotated CPS entry points run\n" +
		"inline on the event loop; anything reachable from them (cross-package)\n" +
		"must not spawn goroutines, touch channels, call blocking sync\n" +
		"primitives, or re-enter Engine.Run. //pfsim:taskctxok escapes with audit.",
	Run: run,
}

const (
	dirTaskctx   = "taskctx"
	dirTaskctxOK = "taskctxok"
)

// finding is one violation, computed program-wide and reported by the
// pass whose package it lands in.
type finding struct {
	pkg *framework.Package
	pos token.Pos
	msg string
}

func run(pass *framework.Pass) (any, error) {
	if pass.Prog == nil {
		return nil, fmt.Errorf("taskctx requires a Program (run through framework.Run/RunOn)")
	}
	findings := pass.Prog.Memo("taskctx.findings", func() any {
		return compute(pass.Prog)
	}).([]finding)
	for _, f := range findings {
		if f.pkg.Types == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil, nil
}

// root records how a node entered task context: the annotated primitive
// its continuation was passed to, and where.
type root struct {
	prim *types.Func
	pos  token.Position
}

func compute(prog *framework.Program) []finding {
	cg := prog.CallGraph()

	// isEntry reports whether fn is a //pfsim:taskctx CPS entry point.
	isEntry := func(fn *types.Func) bool {
		n := cg.NodeOf(fn)
		return n != nil && n.Decl != nil && len(framework.DocDirectives(n.Decl.Doc, dirTaskctx)) > 0
	}

	// Root discovery: function values at argument positions of calls to
	// //pfsim:taskctx entry points. Nodes() walks declarations and
	// literals in deterministic program order, and each body is scanned
	// without descending into nested literals (they are their own nodes).
	reached := map[*framework.Node]root{}
	type item struct {
		n *framework.Node
		r root
	}
	var queue []item
	visit := func(n *framework.Node, r root) {
		if _, ok := reached[n]; ok {
			return
		}
		reached[n] = r
		queue = append(queue, item{n, r})
	}
	for _, n := range cg.Nodes() {
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := framework.StaticCallee(call, info)
			if callee == nil || !isEntry(callee) {
				return true
			}
			r := root{prim: callee, pos: n.Pkg.Fset.Position(call.Pos())}
			for _, arg := range call.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					if ln := cg.NodeOfLit(arg); ln != nil {
						visit(ln, r)
					}
				case *ast.Ident:
					if fn, ok := info.Uses[arg].(*types.Func); ok {
						if dn := cg.NodeOf(fn); dn != nil {
							visit(dn, r)
						}
					}
				case *ast.SelectorExpr:
					if fn, ok := info.Uses[arg.Sel].(*types.Func); ok {
						if dn := cg.NodeOf(fn); dn != nil {
							visit(dn, r)
						}
					}
				}
			}
			return true
		})
	}

	// Closure over call edges and context-sharing literal containment.
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, callee := range cg.Callees(it.n) {
			visit(callee, it.r)
		}
		for _, lit := range cg.Lits(it.n) {
			if lit.GoCall {
				continue // runs on its own goroutine; the go statement is the finding
			}
			visit(lit, it.r)
		}
	}

	// Scan reached bodies for violations, in deterministic node order.
	var out []finding
	for _, n := range cg.Nodes() {
		r, ok := reached[n]
		if !ok {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		dirs := prog.Directives(n.Pkg)
		report := func(pos token.Pos, desc string) {
			if dirs.Has(pos, dirTaskctxOK) {
				return
			}
			out = append(out, finding{
				pkg: n.Pkg,
				pos: pos,
				msg: fmt.Sprintf("%s in task context (reachable from %s continuation at %s:%d); the event loop must not block — restructure in continuation-passing style or annotate //pfsim:taskctxok with an audit note",
					desc, framework.FuncName(r.prim), filepath.Base(r.pos.Filename), r.pos.Line),
			})
		}
		ast.Inspect(body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false // its own node
			case *ast.GoStmt:
				report(x.Pos(), "goroutine spawn")
			case *ast.SendStmt:
				report(x.Arrow, "channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					report(x.OpPos, "channel receive")
				}
			case *ast.SelectStmt:
				report(x.Select, "select statement")
			case *ast.RangeStmt:
				if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(x.For, "range over channel")
					}
				}
			case *ast.CallExpr:
				if callee := framework.StaticCallee(x, info); callee != nil {
					if desc, bad := blockingCall(callee); bad {
						report(x.Pos(), desc)
					}
				}
			}
			return true
		})
	}
	return out
}

// blockingCall classifies calls that must not appear in task context:
// re-entrant engine runs and blocking sync operations.
func blockingCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	recv := recvTypeName(fn)
	switch {
	case framework.HasPathTail(pkg.Path(), "internal/sim"):
		switch recv + "." + fn.Name() {
		case "Engine.Run", "Engine.RunUntil":
			return "re-entrant sim.Engine." + fn.Name() + " call", true
		}
	case pkg.Path() == "sync":
		switch recv + "." + fn.Name() {
		case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock", "WaitGroup.Wait", "Cond.Wait":
			return "blocking sync." + recv + "." + fn.Name() + " call", true
		}
	}
	return "", false
}

// recvTypeName returns the name of the receiver's base type, "" for
// plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
