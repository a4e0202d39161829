// Package flow holds helpers reached cross-package from task
// continuations declared in fixture/internal/ior — the call-graph
// stitching the taskctx analyzer exists for.
package flow

// Blocky drains one element. Blocking on its own is fine; it becomes a
// finding only because ior reaches it from a Signal.Await continuation.
func Blocky(ch chan int) {
	<-ch // want `channel receive in task context \(reachable from Signal\.Await continuation at ior\.go:\d+\)`
}

// Clean is reachable from the same continuation but does nothing
// blocking.
func Clean(x int) int { return x + 1 }
