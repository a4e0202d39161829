// Package sim is a miniature engine surface for the lint fixtures: an
// annotated CPS primitive for the taskctx violation. It must itself be
// finding-free.
package sim

type Task struct{}

type Signal struct{ fired bool }

// Await runs k once the signal fires; k is a task continuation.
//
//pfsim:taskctx
func (s *Signal) Await(t *Task, k func()) {
	if s.fired {
		k()
	}
}
