package sim

import (
	"fmt"
	"slices"
)

// waiter is one parked entry in a Signal's waiter list: the parked task
// and the continuation it resumes with.
type waiter struct {
	t *Task
	k func()
}

// Signal is a one-shot broadcast: tasks Await it, Fire wakes them all at
// the current virtual time (in deterministic order). Awaiting an
// already-fired signal does not block.
//
// A Fire that wakes waiters is one engine event however many it wakes,
// scheduled at the Fire: it runs their continuations in park order.
// Anything one of them schedules at that instant is sequenced after the
// broadcast, as it would be after one event per waiter, so continuations
// run in the same order and at the same times either way. Three things count the
// broadcast as one event: Stats.Fired and LaneEvents (Stats.Woken counts
// the waiters), SetPoll's count, and Stop — a Stop issued by a
// continuation the broadcast resumed takes effect after its last waiter.
//
// A signal that has fired can be re-armed (Rearm) and used again under
// a new name: its waiter list keeps the capacity it grew to, so a caller
// that recycles one signal per rendezvous — MPI collectives, MPI-IO
// operations — parks and wakes ranks without allocating. A signal may be
// re-armed before its broadcast has run: tasks that await it then queue
// behind the woken waiters and wait for the next Fire.
type Signal struct {
	eng   *Engine
	label string
	id    int // >= 0: appended to label on demand (see NewSignalN)
	fired bool
	// waiters holds the signal's tasks in park order. The first woken
	// entries are tasks a Fire has woken whose broadcast has not run yet
	// (see Engine.wake); the rest wait for the next Fire. An int32 beside
	// fired keeps a signal in 64 bytes.
	woken   int32
	waiters []waiter
}

// broadcast is one Fire's pending wake: the signal and how many waiters,
// at the front of its list, the wake resumes.
type broadcast struct {
	s *Signal
	n int32
}

// NewSignal creates a named signal on the engine.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{eng: e, label: name, id: -1}
}

// NewSignalN creates a signal named label+id with room for waiters
// parked tasks. Like a task's, the name is formatted only when a deadlock
// report reads it: an MPI communicator re-arms its collective signals
// under a fresh id per call. A caller that knows how many tasks will
// wait — an MPI communicator's collectives, an MPI-IO file's open and
// operations — sizes the waiter list once, so it never grows by
// doubling.
func (e *Engine) NewSignalN(label string, id, waiters int) *Signal {
	return &Signal{eng: e, label: label, id: id, waiters: make([]waiter, 0, waiters)}
}

// name returns the signal's name. The deadlock report is its only
// caller, so no hot path formats one.
func (s *Signal) name() string { return lazyName(s.label, s.id) }

// Fired reports whether the signal has fired (and not been re-armed
// since): whether Await would run its continuation at once.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired, unparks every waiter and schedules them
// to resume at the current time, in park order, as one broadcast (see
// Signal). Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	w := s.waiters[s.woken:]
	if len(w) == 0 {
		return
	}
	e := s.eng
	e.stats.Woken += int64(len(w))
	for i := range w {
		w[i].t.unpark()
	}
	s.woken += int32(len(w))
	e.bcasts.Push(broadcast{s: s, n: int32(len(w))})
	e.Schedule(0, e.wakeFn)
}

// wake is a broadcast's event: it resumes the waiters of the oldest
// pending broadcast, in park order. Broadcasts wake in the order of their
// Fires, so a broadcast's waiters are the first entries of its signal's
// list when it runs; entries behind them parked after a Rearm. The emptied
// list keeps its capacity for a re-armed signal.
func (e *Engine) wake() {
	b := e.bcasts.Pop()
	s := b.s
	for i := int32(0); i < b.n; i++ {
		s.waiters[i].k() // re-read: a continuation may park on s again and grow its list
	}
	w := s.waiters
	left := copy(w, w[b.n:])
	clear(w[left:])
	s.waiters = w[:left]
	s.woken -= b.n
}

// Rearm makes a fired signal unfired again, named label+id from now on,
// formatted lazily as NewSignalN's names are. It may run before the
// broadcast of the last Fire has: tasks that park on the signal from now
// on queue behind the woken ones and wait for the next Fire. Rearm panics
// on a signal that has not fired: re-arming it would merge two
// rendezvous, waking a waiter of the old one on the new one's Fire.
func (s *Signal) Rearm(label string, id int) {
	if !s.fired {
		panic("sim: re-armed a signal that has not fired")
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
// metadata server). Every hold is a UseTask: the holder's service time and
// continuation sit in entries the resource owns, and its two events, the
// start of a handed-on hold and the end of a service, call methods bound
// once in NewResource, so a hold allocates nothing.
type Resource struct {
	eng      *Engine
	capacity int
	// inUse counts the slots held: holds in service, and holds a release
	// handed a slot to whose start event has not fired (starting, the
	// first entries of queue).
	inUse    int
	starting int
	// queue holds the waiting holds in arrival order, each with its
	// service time; held the holds in service, in grant order, each with
	// the virtual time its service ends.
	queue FIFO[hold]
	held  []hold

	startFn func() // r.start
	endFn   func() // r.end
}

// hold is one UseTask call: the continuation to run when its service
// ends, and its service time while it waits or its end time once granted.
type hold struct {
	k func()
	d float64
}

// NewResource creates a resource admitting capacity concurrent holders.
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	r := &Resource{eng: e, capacity: capacity}
	r.startFn, r.endFn = r.start, r.end
	return r
}

// grant starts h's service: its end event fires after h.d seconds, and
// h.d becomes the end time.
func (r *Resource) grant(h hold) {
	h.d = r.eng.Schedule(h.d, r.endFn).Time()
	r.held = append(r.held, h) // grows to the capacity at most
}

// start grants the slot a release handed on to the head of the queue: the
// zero-delay start event the release scheduled. Start events fire in the
// order the releases scheduled them, which is the queue's order.
func (r *Resource) start() {
	r.starting--
	r.grant(r.queue.Pop())
}

// end finishes the hold whose service ends now, releases its slot and
// runs its continuation. End events fire in (time, sequence) order, and a
// hold's end is scheduled as it joins held, so the first hold in held that
// ends at the clock is the one whose event fires; any that ended earlier
// has left already.
func (r *Resource) end() {
	i := 0
	for r.held[i].d != r.eng.now {
		i++
	}
	k := r.held[i].k
	r.held = slices.Delete(r.held, i, i+1)
	r.release()
	k()
}

// release frees a slot, handing it to the first waiting hold not yet
// handed one, if any: the slot stays accounted to that hold, which starts
// at a zero-delay event, preserving FIFO fairness.
func (r *Resource) release() {
	if r.queue.Len() > r.starting {
		r.starting++
		r.eng.Schedule(0, r.startFn)
		return
	}
	r.inUse--
}

// InUse reports the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of holds waiting for a slot.
func (r *Resource) QueueLen() int { return r.queue.Len() - r.starting }

// FIFO is a first-in first-out queue that allocates for its peak depth,
// not for every push: it rewinds to its start when it drains, and a full
// queue whose front half has been popped slides its entries down instead
// of growing, which bounds its capacity by a small multiple of the peak
// number of entries. The zero value is an empty queue.
type FIFO[T any] struct {
	q    []T
	head int
}

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if n := len(f.q); n == cap(f.q) && f.head > 0 && 2*f.head >= n {
		live := copy(f.q, f.q[f.head:])
		clear(f.q[live:])
		f.q, f.head = f.q[:live], 0
	}
	f.q = append(f.q, v)
}

// Pop removes and returns the head. The queue must not be empty.
func (f *FIFO[T]) Pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// PopBack removes and returns the entry pushed last. The queue must not
// be empty.
func (f *FIFO[T]) PopBack() T {
	n := len(f.q) - 1
	v := f.q[n]
	var zero T
	f.q[n] = zero
	f.q = f.q[:n]
	if f.head == n {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// Len reports the number of queued entries.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Cap reports the entries the queue has room for before it grows: its
// retained size.
func (f *FIFO[T]) Cap() int { return cap(f.q) }
