package sim

import "fmt"

// waiter is one parked entry in a Signal's waiter list or a Resource's
// queue: the continuation k, with t set when it belongs to a tracked task
// (nil for a bare subscription — see Signal.OnFired).
type waiter struct {
	t *Task
	k func()
}

// Signal is a one-shot broadcast: tasks Await it, Fire wakes them all at
// the current virtual time (in deterministic order). Awaiting an
// already-fired signal does not block.
type Signal struct {
	eng     *Engine
	label   string
	id      int // >= 0: appended to label on demand (see NewSignalN)
	fired   bool
	waiters []waiter
}

// NewSignal creates a named signal on the engine.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, label: name, id: -1}
}

// NewSignalN creates a signal named label+id with room for waiters
// parked tasks. Like a task's, the name is formatted only when a deadlock
// report reads it: MPI collectives create a signal per call, and each
// knows how many ranks will wait on it, so its waiter list never grows by
// doubling.
func (e *Engine) NewSignalN(label string, id, waiters int) *Signal {
	return &Signal{eng: e, label: label, id: id, waiters: make([]waiter, 0, waiters)}
}

// name returns the signal's name. The deadlock report is its only
// caller, so no hot path formats one.
func (s *Signal) name() string { return lazyName(s.label, s.id) }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules every waiter to resume at the
// current time, in park order. Firing twice is a no-op.
//
//pfsim:hotpath
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	waiters := s.waiters
	s.waiters = nil
	for _, w := range waiters {
		if w.t != nil {
			w.t.unpark()
		}
		s.eng.Schedule(0, w.k)
	}
}

// Resource is a counted resource with a FIFO wait queue — used for servers
// that admit a bounded number of concurrent operations (e.g. the Lustre
// metadata server).
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []waiter
}

// NewResource creates a resource admitting capacity concurrent holders.
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Release frees a slot, waking the head of the queue if any. The slot
// transfers directly to the woken waiter, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name)) //pfsim:allocok crash path: the formatted panic message never allocates on a live run
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next.t.unpark()
		r.eng.Schedule(0, next.k)
		return // slot stays accounted to the woken waiter
	}
	r.inUse--
}

// InUse reports the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting tasks.
func (r *Resource) QueueLen() int { return len(r.queue) }
