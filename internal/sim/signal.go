package sim

import (
	"fmt"
	"slices"
)

// waiter is one parked entry in a Signal's waiter list or a Resource's
// queue: the parked task and the continuation it resumes with.
type waiter struct {
	t *Task
	k func()
}

// Signal is a one-shot broadcast: tasks Await it, Fire wakes them all at
// the current virtual time (in deterministic order). Awaiting an
// already-fired signal does not block.
//
// A signal that has fired and has no waiters left can be re-armed
// (Rearm) and used again under a new name: its waiter list keeps the
// capacity it grew to, so a caller that recycles one signal per
// rendezvous — MPI collectives, MPI-IO operations — parks and wakes
// ranks without allocating. Rearm panics on a signal that has not
// fired, or whose waiter list is not empty: re-arming either would merge
// two rendezvous, waking a waiter of the old one on the new one's Fire.
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
// report reads it: an MPI communicator re-arms its collective signals
// under a fresh id per call, and knows how many ranks will wait on them,
// so their waiter lists never grow by doubling.
func (e *Engine) NewSignalN(label string, id, waiters int) *Signal {
	return &Signal{eng: e, label: label, id: id, waiters: make([]waiter, 0, waiters)}
}

// name returns the signal's name. The deadlock report is its only
// caller, so no hot path formats one.
func (s *Signal) name() string { return lazyName(s.label, s.id) }

// Fire marks the signal fired and schedules every waiter to resume at the
// current time, in park order. Firing twice is a no-op. The emptied
// waiter list keeps its capacity for a re-armed signal (see Rearm).
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for i, w := range s.waiters {
		w.t.unpark()
		s.eng.Schedule(0, w.k)
		s.waiters[i] = waiter{}
	}
	s.waiters = s.waiters[:0]
}

// Rearm makes a fired signal unfired again, named label+id from now on,
// formatted lazily as NewSignalN's names are. The signal must have fired
// and have no waiters: every task woken by its last Fire has been
// scheduled, and none has parked since (Await on a fired signal runs its
// continuation without parking).
func (s *Signal) Rearm(label string, id int) {
	if !s.fired || len(s.waiters) > 0 {
		panic("sim: re-armed a signal that has not fired or still has waiters")
	}
	s.fired = false
	s.label, s.id = label, id
}

// grow makes room for one more waiter. A waiter list grows to its peak
// population once: collective signals are sized at creation and
// recycled with their capacity.
func (s *Signal) grow() {
	s.waiters = slices.Grow(s.waiters, 1)
}

// Resource is a counted resource with a FIFO wait queue — used for servers
// that admit a bounded number of concurrent operations (e.g. the Lustre
// metadata server).
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	// queue[head:] are the waiting tasks in FIFO order. Release pops
	// through head and clears the slot; the queue rewinds to its start
	// when it drains, and compacts instead of growing when its front
	// half is spent, so a long-contended resource allocates for its
	// peak depth, not for every acquire.
	queue []waiter
	head  int
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
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.head < len(r.queue) {
		next := r.queue[r.head]
		r.queue[r.head] = waiter{}
		if r.head++; r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		next.t.unpark()
		r.eng.Schedule(0, next.k)
		return // slot stays accounted to the woken waiter
	}
	r.inUse--
}

// enqueue appends a waiter at the queue's tail. A full queue whose front
// half has been popped slides its waiters to the start rather than
// growing, which bounds its capacity by a small multiple of the peak
// number of waiters.
func (r *Resource) enqueue(w waiter) {
	if n := len(r.queue); n == cap(r.queue) && r.head > 0 && 2*r.head >= n {
		live := copy(r.queue, r.queue[r.head:])
		clear(r.queue[live:])
		r.queue, r.head = r.queue[:live], 0
	}
	r.queue = append(r.queue, w)
}

// InUse reports the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting tasks.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }
