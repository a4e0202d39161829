// Package sim provides the discrete-event simulation engine that underpins
// pfsim. Virtual time is a float64 number of seconds. Events fire in
// (time, sequence) order, so simulations are fully deterministic. On top of
// the raw event queue the package offers simulated processes as inline
// tasks (Task): resumable state machines whose blocking points — Sleep,
// Signal.Await, Resource.AcquireTask — are scheduled continuations run by
// the event loop itself, so the engine needs no goroutines and introduces
// no scheduling nondeterminism.
//
// The queue has two parts. A binary heap holds events strictly in the
// future of the clock when they are scheduled; an append-only FIFO lane
// holds events whose (clamped) fire time equals the clock at scheduling —
// collective wakes, resource hand-offs, zero-delay continuations — which
// are the large majority in collective-heavy workloads and would otherwise
// each pay an O(log n) heap trip. The split keeps (time, sequence) order
// exactly: a heap event due at the current instant was scheduled before
// the clock reached it, so its sequence number is below every lane
// entry's, and the lane is in sequence order by construction. RunUntil
// therefore fires the heap's events due now, then drains the lane, and
// only then advances the clock.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Event is a scheduled callback. It can be cancelled before it fires.
// A pending event sits either in the engine's heap (index is its heap
// position) or in the same-instant lane (inLane, index is its lane slot);
// moving between the two is invisible to callers.
//
// Event records are pooled: once an event has fired or been cancelled, the
// engine may hand its record to a later Schedule call (see ScheduleAt).
// Cancelling or rescheduling an event that already fired stays a safe no-op
// only until the record is reused, so callers that retain an *Event across
// instants must drop (nil) their reference the moment the event fires —
// the discipline flow.Net follows with its dirty and completion events.
// The lane never keeps a pooled record: cancelling or moving a lane entry
// leaves a nil tombstone in its slot, so a reused record cannot be reached
// (and fired) through a slot it no longer owns.
type Event struct {
	at        float64
	seq       int64
	index     int // heap index or lane slot, -1 when not queued
	fn        func()
	cancelled bool
	inLane    bool
}

// Time returns the virtual time at which the event fires.
func (ev *Event) Time() float64 { return ev.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev) // grows to the peak event population, then reuses capacity
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	events  eventHeap // events due strictly after the clock when scheduled
	seq     int64
	stopped bool
	running bool // inside RunUntil: an event must not re-enter it

	// lane holds the events scheduled at the current instant, in sequence
	// order, from laneHead on; cancelled entries are nil tombstones.
	// laneLive counts the live ones, so Pending stays O(1) and exact.
	lane     []*Event
	laneHead int
	laneLive int

	stats Stats

	tasks int // started, unfinished inline tasks
	// parked lists the tasks waiting on a signal or queued on a resource,
	// in no particular order; each knows its slot (see Task.park).
	parked []parkedTask

	pollEvery int // call pollFn every this many fired events (0: never)
	pollCount int
	pollFn    func()

	// free holds fired/cancelled event records awaiting reuse, so a
	// steady-state simulation (the flow solver's flush-per-instant churn)
	// schedules events without touching the heap allocator.
	free []*Event
}

// SetPoll installs fn to run after every n fired events during Run — the
// hook cancellation watchers use to bound their wall-clock latency in
// the unit that actually passes wall-clock time (events processed), with
// zero effect on the simulation: no events are injected, virtual time
// and event order are untouched. fn must not mutate simulation state;
// reading external conditions and calling Stop is the intended use.
// n <= 0 or a nil fn removes the hook.
func (e *Engine) SetPoll(n int, fn func()) {
	if n <= 0 || fn == nil {
		e.pollEvery, e.pollFn, e.pollCount = 0, nil, 0
		return
	}
	e.pollEvery, e.pollFn, e.pollCount = n, fn, 0
}

// Stats counts the engine's work. Every event ScheduleAt creates enters
// exactly one queue, so LaneEvents + HeapPushes == Scheduled, and every
// scheduled event is eventually fired, cancelled or still pending:
// Scheduled == Fired + Cancelled + Pending(). Reschedule moves an event
// without creating one; it is counted in Rescheduled only.
type Stats struct {
	Scheduled   int64 // events created by Schedule/ScheduleAt
	Fired       int64 // callbacks run by RunUntil
	Cancelled   int64 // pending events removed by Cancel
	Rescheduled int64 // successful Reschedule calls
	LaneEvents  int64 // scheduled events routed to the same-instant lane
	HeapPushes  int64 // scheduled events routed to the future-event heap
}

// Add folds o's counters into s: the work of several engines summed.
func (s *Stats) Add(o Stats) {
	s.Scheduled += o.Scheduled
	s.Fired += o.Fired
	s.Cancelled += o.Cancelled
	s.Rescheduled += o.Rescheduled
	s.LaneEvents += o.LaneEvents
	s.HeapPushes += o.HeapPushes
}

// Stats returns the engine's work counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// parkedTask is an entry in the engine's parked list: a task and what it
// waits on, a signal or, when sig is nil, a resource. Only parked tasks
// need these, so they live here rather than on every Task.
type parkedTask struct {
	t   *Task
	sig *Signal
	res *Resource
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run after delay seconds (clamped at zero). It
// returns the event so callers may cancel it.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if math.IsNaN(delay) {
		panic("sim: scheduled with NaN delay")
	}
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at (clamped to now).
// An event due at the current instant — including one whose small positive
// delay rounds to now — joins the same-instant lane in O(1); a later one
// goes on the heap. The returned event's record comes from the engine's
// free list when one is available: scheduling allocates only while the
// in-flight event population is still growing, and a steady-state
// simulation runs allocation-free.
func (e *Engine) ScheduleAt(at float64, fn func()) *Event {
	if math.IsNaN(at) {
		// A NaN deadline compares false against everything, so it would
		// corrupt the event heap's ordering invariant silently instead of
		// failing here.
		panic("sim: scheduled at NaN time")
	}
	if math.IsInf(at, 1) {
		// An event at +Inf would fire only under Run, after moving the
		// clock to +Inf, where every later delay is lost.
		panic("sim: scheduled at +Inf time")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *Event
	if k := len(e.free) - 1; k >= 0 {
		ev = e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
		*ev = Event{at: at, seq: e.seq, fn: fn, index: -1}
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn, index: -1} // the pool grows; recycle returns the record once fired
	}
	e.stats.Scheduled++
	if at == e.now {
		e.stats.LaneEvents++
		e.pushLane(ev)
	} else {
		e.stats.HeapPushes++
		heap.Push(&e.events, ev)
	}
	return ev
}

// pushLane appends ev at the lane's tail. Its sequence number must exceed
// every queued lane entry's, which holds for a freshly (re)sequenced event.
func (e *Engine) pushLane(ev *Event) {
	ev.inLane = true
	ev.index = len(e.lane)
	e.lane = append(e.lane, ev) // grows to the largest same-instant burst, then reuses capacity
	e.laneLive++
}

// dropLane tombstones ev's lane slot.
func (e *Engine) dropLane(ev *Event) {
	e.lane[ev.index] = nil
	e.laneLive--
	ev.inLane = false
	ev.index = -1
}

// recycle returns a fired or cancelled event record to the free list. The
// record keeps cancelled=true while pooled, so a stale Cancel or Reschedule
// through a retained pointer stays a no-op until the record is reused.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.cancelled = true
	e.free = append(e.free, ev) // grows to the peak event population
}

// Reschedule moves a pending event to fire at absolute virtual time at
// (clamped to now), re-sequencing it as if it had been cancelled and
// freshly scheduled: among events at the same instant it fires after
// everything already queued, exactly like Cancel followed by ScheduleAt,
// but without allocating a new event or paying two heap operations. This
// is the decrease-key path for callers that keep one long-lived event and
// move it — the flow solver's completion event — instead of
// cancel-and-repost churn. It returns false, and does nothing, when the
// event is nil, cancelled, or has already fired; callers then fall back
// to ScheduleAt.
func (e *Engine) Reschedule(ev *Event, at float64) bool {
	if math.IsNaN(at) {
		panic("sim: rescheduled to NaN time")
	}
	if math.IsInf(at, 1) {
		panic("sim: rescheduled to +Inf time")
	}
	if ev == nil || ev.cancelled || ev.index < 0 {
		return false
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.stats.Rescheduled++
	switch {
	case ev.inLane && at == e.now: // to the lane's tail, behind its new peers
		e.dropLane(ev)
		e.pushLane(ev)
	case ev.inLane:
		e.dropLane(ev)
		heap.Push(&e.events, ev)
	case at == e.now:
		heap.Remove(&e.events, ev.index)
		e.pushLane(ev)
	default:
		heap.Fix(&e.events, ev.index)
	}
	return true
}

// Cancel removes a pending event; cancelling a fired or already-cancelled
// event is a no-op. The cancelled record returns to the engine's free list
// immediately — see the pooling contract on Event.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		if ev != nil {
			ev.cancelled = true
		}
		return
	}
	ev.cancelled = true
	if ev.inLane {
		e.dropLane(ev)
	} else {
		heap.Remove(&e.events, ev.index)
	}
	e.stats.Cancelled++
	e.recycle(ev)
}

// Stop makes the next (or current) Run return before firing another event.
// A Stop issued before Run starts is honoured: Run returns immediately
// without executing anything. Each Run/RunUntil return consumes at most one
// stop request, so the engine can be resumed afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a stop request is pending.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue empties or Stop is called. It returns
// an error if processes remain blocked with no pending events (a simulation
// deadlock), listing the stuck processes.
func (e *Engine) Run() error { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with fire time <= tmax. Virtual time never
// exceeds tmax and never moves backwards: a tmax before Now fires nothing
// and leaves the clock alone. An earlier revision reset the stop flag on
// entry, which silently discarded a Stop issued before Run — launch-error
// paths that stop the engine synchronously (before Run begins) would run
// the whole simulation anyway and delay the error until completion.
//
// At each instant the heap's events due now fire first, then the lane
// drains in order, and only then does the clock advance — exactly the
// (time, sequence) order, as the package doc argues.
//
// An event must not call Run or RunUntil: a nested loop would fire later
// events inside the current one, out of (time, sequence) order. It
// panics instead.
func (e *Engine) RunUntil(tmax float64) error {
	if e.running {
		panic("sim: RunUntil called from inside an event")
	}
	e.running = true
	defer e.endRun()
	if tmax < e.now {
		return nil
	}
	for !e.stopped {
		var ev *Event
		switch {
		case len(e.events) > 0 && e.events[0].at <= e.now:
			ev = heap.Pop(&e.events).(*Event)
		case e.laneHead < len(e.lane):
			ev = e.lane[e.laneHead]
			e.lane[e.laneHead] = nil
			if e.laneHead++; e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
			if ev == nil { // tombstone of a cancelled or moved entry
				continue
			}
			ev.inLane, ev.index = false, -1
			e.laneLive--
		case len(e.events) > 0:
			if e.events[0].at > tmax {
				e.now = tmax
				return nil
			}
			ev = heap.Pop(&e.events).(*Event)
			e.now = ev.at
		default:
			if len(e.parked) > 0 {
				return e.deadlockErr()
			}
			return nil
		}
		e.stats.Fired++
		fn := ev.fn
		fn()
		e.recycle(ev)
		if e.pollEvery > 0 {
			if e.pollCount++; e.pollCount >= e.pollEvery {
				e.pollCount = 0
				e.pollFn()
			}
		}
	}
	e.stopped = false // consume the stop so the engine can be resumed
	return nil
}

// endRun marks the engine as outside RunUntil again, also when an event
// panics, so a caller that recovers can run the engine on.
func (e *Engine) endRun() { e.running = false }

// deadlockErr builds the blocked-process report for RunUntil. It
// allocates, and runs once, as the simulation aborts.
func (e *Engine) deadlockErr() error {
	names := make([]string, len(e.parked))
	for i, p := range e.parked {
		if p.sig != nil {
			names[i] = p.t.Name() + " (waiting " + p.sig.name() + ")"
		} else {
			names[i] = p.t.Name() + " (queued on " + p.res.name + ")"
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%.6f: %d blocked process(es): %v",
		e.now, len(names), names)
}

// Pending reports the number of queued (uncancelled) events. Cancel
// removes heap events eagerly and counts lane tombstones out, so this is
// exact and O(1), where earlier revisions scanned the whole heap on every
// call.
func (e *Engine) Pending() int { return len(e.events) + e.laneLive }

// LiveTasks reports the number of inline tasks that have started and not
// yet finished.
func (e *Engine) LiveTasks() int { return e.tasks }
