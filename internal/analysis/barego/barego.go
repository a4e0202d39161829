// Package barego forbids bare `go` statements outside the one package
// that owns concurrency: internal/pool (the deterministic worker pool that
// fans independent simulations).
//
// Every goroutine in the simulator must be owned by pool.Run's bounded
// workers, which are joined before Run returns: stray goroutines parked
// on channels have pinned whole engine runs, which is what the
// stop/cancel hardening exists for. A simulation runs on one goroutine:
// workloads dispatch as inline engine tasks (sim.Task continuations on
// the event heap) and the fluid solver solves on the engine's goroutine,
// so neither needs goroutines of its own. A goroutine spawned anywhere
// else — the engine, a cmd tool, an example, a future tuning controller —
// escapes that ownership, so it must either go through the pool or carry
// a //pfsim:goroutineok annotation recording the audit (e.g. "joined
// before return, no sim state touched").
package barego

import (
	"go/ast"
	"strings"

	"pfsim/internal/analysis/framework"
)

// Analyzer flags go statements outside the concurrency-owning packages.
var Analyzer = &framework.Analyzer{
	Name: "barego",
	Doc:  "forbids bare go statements outside internal/pool; goroutines elsewhere escape pool ownership (suppress audited spawns with //pfsim:goroutineok)",
	Run:  run,
}

// concurrencyOwner is the package-path tail allowed to spawn goroutines
// directly.
const concurrencyOwner = "internal/pool"

func run(pass *framework.Pass) (any, error) {
	if path := pass.Pkg.Path(); path == concurrencyOwner || strings.HasSuffix(path, "/"+concurrencyOwner) {
		return nil, nil
	}
	dirs := framework.NewDirectives(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if dirs.Has(gs.Pos(), "goroutineok") {
				return true
			}
			pass.Reportf(gs.Pos(),
				"bare go statement outside internal/pool escapes pool ownership; use pool.Run, or audit the spawn and annotate //pfsim:goroutineok")
			return true
		})
	}
	return nil, nil
}
