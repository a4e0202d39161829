// Package sim is a miniature of the real engine surface: the annotated
// CPS entry points. It must stay clean under taskctx.
package sim

type Engine struct{ tasks int }

type Task struct{ eng *Engine }

type Signal struct{ fired bool }

type Resource struct{ inUse int }

func NewEngine() *Engine { return &Engine{} }

// Schedule queues fn to run on the event loop after delay seconds.
//
//pfsim:taskctx
func (e *Engine) Schedule(delay float64, fn func()) {}

// StartTask begins an inline task; body runs on the event loop.
//
//pfsim:taskctx
func (e *Engine) StartTask(delay float64, label string, id int, body func(*Task)) *Task {
	t := &Task{eng: e}
	e.Schedule(delay, func() { body(t) })
	return t
}

// Run drives the event loop to completion.
func (e *Engine) Run() error { return nil }

// Await runs k once the signal fires.
//
//pfsim:taskctx
func (s *Signal) Await(t *Task, k func()) {
	if s.fired {
		k()
	}
}

// Fire marks the signal fired.
func (s *Signal) Fire() { s.fired = true }

// Sleep runs k after d seconds of virtual time.
//
//pfsim:taskctx
func (t *Task) Sleep(d float64, k func()) { t.eng.Schedule(d, k) }

// AcquireTask grants the task a slot, running k once one is free.
//
//pfsim:taskctx
func (r *Resource) AcquireTask(t *Task, k func()) { k() }
