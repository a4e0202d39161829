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
	done  bool
}

// StartTask begins an inline task after delay seconds of virtual time.
// The body runs when the engine reaches the start event; it receives the
// task and must arrange for t.Finish() to be called exactly once when the
// workload is complete (typically as the final continuation). The name is
// label+id formatted lazily — fleet launchers start tens of thousands of
// tasks and the name is only ever read by deadlock reports and
// diagnostics. A negative id names the task label alone.
//
//pfsim:taskctx
func (e *Engine) StartTask(delay float64, label string, id int, body func(t *Task)) *Task {
	t := &Task{eng: e, label: label, id: id}
	e.tasks++
	e.Schedule(delay, func() { body(t) })
	return t
}

// Finish retires the task. It must be called exactly once, as the final
// step of the task's continuation chain.
func (t *Task) Finish() {
	if t.done {
		panic("sim: task " + t.Name() + " finished twice")
	}
	t.done = true
	t.eng.tasks--
}

// Name returns the task name (used in deadlock reports), formatted on
// demand — see StartTask.
func (t *Task) Name() string {
	if t.id < 0 {
		return t.label
	}
	return t.label + strconv.Itoa(t.id)
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
//
//pfsim:hotpath
//pfsim:taskctx
func (t *Task) Sleep(d float64, k func()) {
	t.eng.Schedule(d, k)
}

// Await runs k once the signal has fired. If the signal already fired, k
// runs synchronously, without touching the event queue. Otherwise the task
// parks on the signal's waiter list in FIFO position.
//
//pfsim:hotpath
//pfsim:taskctx
func (s *Signal) Await(t *Task, k func()) {
	if s.fired {
		k()
		return
	}
	t.eng.blocked[t] = blockedOn{verb: "waiting", what: s.name}
	s.waiters = append(s.waiters, waiter{t: t, k: k}) //pfsim:allocok waiter-list growth is bounded by the peak blocked population
}

// OnFired runs k once the signal fires, without tying the subscription to
// a task: the self-rescheduling form of a watcher process. If the signal
// already fired, k is scheduled at the current instant (a watcher that
// subscribes late must still observe, not miss, the edge); otherwise k
// joins the waiter list like any other waiter. A subscription is not
// tracked for deadlock detection — a watcher that never fires is not a
// stuck workload.
//
//pfsim:taskctx
func (s *Signal) OnFired(k func()) {
	if s.fired {
		s.eng.Schedule(0, k)
		return
	}
	s.waiters = append(s.waiters, waiter{k: k})
}

// AwaitAll runs k once every signal in sigs has fired, visiting them in
// order: park on the first unfired signal, and when it fires re-examine
// the rest from there. Signals already fired are skipped synchronously,
// so a task whose signals are all up proceeds without touching the event
// queue.
//
//pfsim:hotpath
//pfsim:taskctx
func AwaitAll(t *Task, sigs []*Signal, k func()) {
	awaitFrom(t, sigs, 0, k)
}

func awaitFrom(t *Task, sigs []*Signal, i int, k func()) {
	for ; i < len(sigs); i++ {
		if !sigs[i].fired {
			s, next := sigs[i], i+1
			s.Await(t, func() { awaitFrom(t, sigs, next, k) }) //pfsim:allocok one resume closure per actually-blocking signal
			return
		}
	}
	k()
}

// AcquireTask grants the task a slot, running k once one is free, FIFO
// order. An uncontended acquire runs k synchronously. The holder must call
// Release when done.
//
//pfsim:hotpath
//pfsim:taskctx
func (r *Resource) AcquireTask(t *Task, k func()) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		k()
		return
	}
	r.queue = append(r.queue, waiter{t: t, k: k}) //pfsim:allocok queue growth is bounded by the peak contention depth
	r.eng.blocked[t] = blockedOn{verb: "queued on", what: r.name}
}

// UseTask acquires the resource, holds it for service seconds, releases,
// and then runs k — the fixed-cost-server pattern on the MDS hot path.
//
//pfsim:hotpath
//pfsim:taskctx
func (r *Resource) UseTask(t *Task, service float64, k func()) {
	r.AcquireTask(t, func() { //pfsim:allocok one continuation per Use: the CPS form of the caller's frame
		t.Sleep(service, func() { //pfsim:allocok one continuation per Use (see above)
			r.Release()
			k()
		})
	})
}
