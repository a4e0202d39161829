// Package ior exercises the taskctx analyzer: continuations handed to
// the annotated sim primitives, blocking constructs at every depth,
// cross-package reachability into fixture/internal/flow, the
// go-launched-closure exemption, and the line-level escape hatch.
package ior

import (
	"sync"

	"fixture/internal/flow"
	"fixture/internal/sim"
)

// Drive hands continuations to the CPS entry points; everything
// reachable from them is task context.
func Drive(e *sim.Engine, s *sim.Signal, r *sim.Resource, ch chan int, mu *sync.Mutex, wg *sync.WaitGroup) {
	e.StartTask(0, "w", 1, func(t *sim.Task) {
		go drain(ch) // want `goroutine spawn in task context \(reachable from Engine\.StartTask continuation at ior\.go:\d+\)`
		ch <- 1      // want `channel send in task context`
		s.Await(t, func() {
			flow.Clean(1)
			flow.Blocky(ch) // reported inside flow, attributed to this Await
			mu.Lock()       // want `blocking sync\.Mutex\.Lock call in task context \(reachable from Signal\.Await continuation`
		})
		r.AcquireTask(t, func() {
			wg.Wait() // want `blocking sync\.WaitGroup\.Wait call in task context \(reachable from Resource\.AcquireTask continuation`
		})
	})
	eng, events = e, ch
	e.Schedule(0, pump)
}

// Package state so pump can be a plain func() — the method-value root
// shape Schedule accepts.
var (
	eng    *sim.Engine
	events chan int
)

// drain is launched by a go statement: the spawn itself is the finding,
// and the body runs on the new goroutine — its receive is legal there
// and must not be reported.
func drain(ch chan int) {
	<-ch
}

// pump enters task context as a function-value continuation (passed to
// Engine.Schedule by name, not as a literal).
func pump() {
	select { // want `select statement in task context \(reachable from Engine\.Schedule continuation`
	case <-events: // want `channel receive in task context`
	default:
	}
	for range events { // want `range over channel in task context`
	}
	_ = eng.Run() // want `re-entrant sim\.Engine\.Run call in task context`
	<-events      //pfsim:taskctxok fixture audit: line-level suppression of this one receive
}
