package sim

import "strconv"

// Task is a simulated process dispatched inline by the event loop: a
// resumable state machine whose blocking points are expressed as scheduled
// continuations. A Task is plain data: suspending is appending a
// continuation to a waiter list or the event queue, resuming is an ordinary
// function call from RunUntil, and a task abandoned on a stopped engine
// holds no goroutine or stack. A fleet of tasks therefore holds
// O(pool-width) goroutines regardless of fleet size.
//
// The cost is shape: a Task body cannot block mid-function, so workloads
// are written in continuation-passing style — each blocking primitive
// takes the rest of the computation as a func().
type Task struct {
	eng   *Engine
	label string
	id    int // >= 0: appended to label on demand (lazy spawn names)
	// sig is the signal the task last waited on; parked says whether it
	// waits now (see park).
	sig    *Signal
	parked bool
	done   bool
	// listed is 0 before the task's first park and after Finish, else one
	// more than its index in the engine's waiting list.
	listed int
}

// StartTask begins an inline task after delay seconds of virtual time.
// The body runs when the engine reaches the start event; it receives the
// task and must arrange for t.Finish() to be called exactly once when the
// workload is complete (typically as the final continuation). The name is
// label+id formatted lazily — fleet launchers start tens of thousands of
// tasks and the name is only ever read by deadlock reports and
// diagnostics. A negative id names the task label alone.
func (e *Engine) StartTask(delay float64, label string, id int, body func(t *Task)) *Task {
	t := &Task{eng: e, label: label, id: id}
	e.tasks++
	e.Schedule(delay, func() { body(t) })
	return t
}

// Finish retires the task. It must be called exactly once, as the final
// step of the task's continuation chain. A finished task leaves the
// engine's waiting list and ends any park.
func (t *Task) Finish() {
	if t.done {
		panic("sim: task " + t.Name() + " finished twice")
	}
	t.done = true
	e := t.eng
	e.tasks--
	t.unpark()
	if t.listed > 0 {
		w := e.waiting
		last := w[len(w)-1]
		w[t.listed-1] = last
		last.listed = t.listed
		w[len(w)-1] = nil
		e.waiting = w[:len(w)-1]
		t.listed = 0
	}
}

// Name returns the task name (used in deadlock reports), formatted on
// demand — see StartTask.
func (t *Task) Name() string { return lazyName(t.label, t.id) }

// lazyName is label+id, or label alone for a negative id: the name of a
// task or signal whose creator left it unformatted.
func lazyName(label string, id int) string {
	if id < 0 {
		return label
	}
	return label + strconv.Itoa(id)
}

// park records that the task waits on sig. A task parked already records
// the new wait, so the deadlock report names its latest one. Its first
// park lists the task with the engine, once until Finish; later parks and
// wakes only set and clear a flag.
func (t *Task) park(sig *Signal) {
	e := t.eng
	if t.listed == 0 {
		e.waiting = append(e.waiting, t) // grows to the peak population of parked-once, unfinished tasks
		t.listed = len(e.waiting)
	}
	if !t.parked {
		t.parked = true
		e.parked++
	}
	t.sig = sig
}

// unpark ends the task's park, if it is parked. Any wake ends the park,
// even one from a second wait the task registered.
func (t *Task) unpark() {
	if t.parked {
		t.parked = false
		t.eng.parked--
	}
}

// Engine returns the engine this task runs on.
func (t *Task) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Task) Now() float64 { return t.eng.now }

// Done reports whether Finish has been called.
func (t *Task) Done() bool { return t.done }

// Sleep suspends the task for d seconds of virtual time, then runs k: one
// scheduled event. Non-positive durations run k after the events already
// queued at the current instant.
func (t *Task) Sleep(d float64, k func()) {
	t.eng.Schedule(d, k)
}

// Await runs k once the signal has fired. If the signal already fired, k
// runs synchronously, without touching the event queue. Otherwise the task
// parks on the signal's waiter list in FIFO position.
func (s *Signal) Await(t *Task, k func()) {
	if s.fired {
		k()
		return
	}
	t.park(s)
	n := len(s.waiters)
	if n == cap(s.waiters) {
		s.grow()
	}
	s.waiters = s.waiters[:n+1]
	s.waiters[n] = waiter{t: t, k: k}
}

// UseTask acquires the resource, holds it for service seconds, releases,
// and then runs k — the fixed-cost-server pattern on the MDS hot path. An
// uncontended call schedules the end of its service at once; a contended
// one waits in the resource's FIFO queue until a release hands it the
// slot, and its service starts at that zero-delay start event. The hold's
// continuation and service time wait in the resource's own entries, so a
// call allocates nothing once the queue has grown to its peak depth.
//
// The task is not parked while it queues: every hold ends, so a queue
// always drains, and a queued task cannot be what deadlocks a run.
func (r *Resource) UseTask(t *Task, service float64, k func()) {
	h := hold{k: k, d: service}
	if r.inUse < r.capacity && r.queue.Len() == 0 {
		r.inUse++
		r.grant(h)
		return
	}
	r.queue.Push(h)
}
