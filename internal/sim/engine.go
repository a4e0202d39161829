// Package sim provides the discrete-event simulation engine that underpins
// pfsim. Virtual time is a float64 number of seconds. Events fire in
// (time, sequence) order, so simulations are fully deterministic. On top of
// the raw event queue the package offers simulated processes as inline
// tasks (Task): resumable state machines whose blocking points — Sleep,
// Signal.Await, Resource.UseTask — are scheduled continuations run by
// the event loop itself, so the engine needs no goroutines and introduces
// no scheduling nondeterminism.
//
// The queue has two parts. A binary heap holds events strictly in the
// future of the clock when they are scheduled; an append-only FIFO lane
// holds events whose (clamped) fire time equals the clock at scheduling —
// broadcast wakes, resource hand-offs, zero-delay continuations — which
// would otherwise each pay an O(log n) heap trip. A broadcast is one lane
// event however many waiters its Fire resumes: the event runs their
// continuations in park order (see Signal), and Stats.Woken counts them.
// The split keeps (time, sequence) order exactly: a heap event due at the
// current instant was scheduled before the clock reached it, so its
// sequence number is below every lane entry's, and the lane is in
// sequence order by construction. RunUntil therefore fires the heap's
// events due now, then drains the lane, and only then advances the clock.
//
// Neither part holds a pointer. Event records live in a slab of chunks
// that never move; the heap, the lane and the free list hold int32 slots
// into it, and a per-slot index keeps each queued record's position. While
// the collector runs, every pointer store pays a write barrier, and a heap
// sift, a lane append or a recycle would otherwise store several. The
// queue's only pointer store per event is the callback's: ScheduleAt
// stores it and recycle clears it. The queue of pending broadcasts holds
// one pointer per broadcast, its signal, not one per waiter.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Event is a scheduled callback. It can be cancelled before it fires.
// A pending event sits either in the engine's heap or in the same-instant
// lane (inLane); moving between the two is invisible to callers.
//
// Event records are pooled: once an event has fired or been cancelled, the
// engine may hand its record to a later Schedule call (see ScheduleAt).
// Cancelling or rescheduling an event that already fired stays a safe no-op
// only until the record is reused, so callers that retain an *Event across
// instants must drop (nil) their reference the moment the event fires —
// the discipline flow.Net follows with its dirty and completion events.
// The lane never keeps a pooled record: cancelling or moving a lane entry
// leaves a -1 tombstone in its place, so a reused record cannot be reached
// (and fired) through an entry it no longer owns.
type Event struct {
	at     float64
	seq    int64
	fn     func()
	slot   int32 // the record's place in the engine's slab, fixed for life
	inLane bool
}

// Time returns the virtual time at which the event fires.
func (ev *Event) Time() float64 { return ev.at }

// before reports whether a fires before b: the (time, sequence) order.
func before(a, b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// slab is a store of event records addressed by int32 slot, grown in
// chunks of chunkSize records (4 KB). A chunk never moves, so an *Event
// stays valid for the engine's life.
type slab []*[chunkSize]Event

const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// ev returns the record in slot s.
func (sl slab) ev(s int32) *Event { return &sl[s>>chunkBits][s&chunkMask] }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	seq     int64
	stopped bool
	running bool // inside RunUntil: an event must not re-enter it

	// recs holds the event records, addressed by slot, and slots counts
	// the slots handed out.
	recs  slab
	slots int32
	// pos[slot] is a queued record's index in heap or lane, -1 when the
	// record is not queued.
	pos []int32
	// heap holds the events due strictly after the clock when scheduled,
	// a binary min-heap on (at, seq).
	heap []int32
	// lane holds the events scheduled at the current instant, in sequence
	// order, from laneHead on; cancelled or moved entries are -1
	// tombstones. laneLive counts the live ones, so Pending stays O(1) and
	// exact.
	lane     []int32
	laneHead int
	laneLive int
	// free holds fired/cancelled records awaiting reuse, so a steady-state
	// simulation (the flow solver's flush-per-instant churn) schedules
	// events without touching the heap allocator.
	free []int32
	// bcasts holds the broadcasts whose wake event has not fired, in the
	// order of their events; every such event calls wakeFn (e.wake).
	bcasts FIFO[broadcast]
	wakeFn func()

	stats Stats

	tasks int // started, unfinished inline tasks
	// waiting lists each task from its first park until it finishes, in
	// no particular order; parked counts those parked now (see Task.park).
	waiting []*Task
	parked  int

	pollEvery int // call pollFn every this many fired events (0: never)
	pollCount int
	pollFn    func()
}

// SetPoll installs fn to run after every n fired events during Run — the
// hook cancellation watchers use to bound their wall-clock latency in
// the unit that actually passes wall-clock time (events processed), with
// zero effect on the simulation: no events are injected, virtual time
// and event order are untouched. A broadcast counts as one event however
// many waiters it resumes. fn must not mutate simulation state; reading
// external conditions and calling Stop is the intended use. n <= 0 or a
// nil fn removes the hook.
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
// without creating one; it is counted in Rescheduled only. A Signal.Fire
// that wakes waiters schedules one event however many it wakes: Woken
// counts the waiters, so the work a broadcast resumes stays counted.
type Stats struct {
	Scheduled   int64 // events created by Schedule/ScheduleAt
	Fired       int64 // callbacks run by RunUntil
	Cancelled   int64 // pending events removed by Cancel
	Rescheduled int64 // successful Reschedule calls
	LaneEvents  int64 // scheduled events routed to the same-instant lane
	HeapPushes  int64 // scheduled events routed to the future-event heap
	Woken       int64 // waiters resumed by Signal.Fire
}

// Add folds o's counters into s: the work of several engines summed.
func (s *Stats) Add(o Stats) {
	s.Scheduled += o.Scheduled
	s.Fired += o.Fired
	s.Cancelled += o.Cancelled
	s.Rescheduled += o.Rescheduled
	s.LaneEvents += o.LaneEvents
	s.HeapPushes += o.HeapPushes
	s.Woken += o.Woken
}

// Stats returns the engine's work counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.wakeFn = e.wake
	return e
}

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
// free list when one is available: scheduling allocates only when the
// in-flight event population outgrows the slab, a chunk at a time, and a
// steady-state simulation runs allocation-free.
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
	var slot int32
	if k := len(e.free) - 1; k >= 0 {
		slot = e.free[k]
		e.free = e.free[:k]
	} else {
		slot = e.newSlot()
	}
	ev := e.recs.ev(slot)
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.stats.Scheduled++
	if at == e.now {
		e.stats.LaneEvents++
		e.pushLane(ev)
	} else {
		e.stats.HeapPushes++
		e.pushHeap(ev.slot)
	}
	return ev
}

// newSlot hands out a slot never used before, adding a chunk to the slab
// when the last one is full. The slab grows to the peak event
// population; after that, every record comes from the free list.
func (e *Engine) newSlot() int32 {
	s := e.slots
	if s == math.MaxInt32 {
		panic("sim: more than 2^31-1 events pending")
	}
	if s&chunkMask == 0 {
		e.recs = append(e.recs, new([chunkSize]Event))
	}
	e.slots++
	e.recs.ev(s).slot = s
	e.pos = append(e.pos, -1)
	return s
}

// pushLane appends ev at the lane's tail. Its sequence number must exceed
// every queued lane entry's, which holds for a freshly (re)sequenced event.
func (e *Engine) pushLane(ev *Event) {
	ev.inLane = true
	e.pos[ev.slot] = int32(len(e.lane))
	e.lane = append(e.lane, ev.slot) // grows to the largest same-instant burst, then reuses capacity
	e.laneLive++
}

// dropLane tombstones ev's lane entry.
func (e *Engine) dropLane(ev *Event) {
	e.lane[e.pos[ev.slot]] = -1
	e.pos[ev.slot] = -1
	ev.inLane = false
	e.laneLive--
}

// pushHeap adds slot s to the heap.
func (e *Engine) pushHeap(s int32) {
	e.heap = append(e.heap, s) // grows to the peak future-event population, then reuses capacity
	e.up(len(e.heap) - 1)
}

// popHeap takes the heap's first event off it.
func (e *Engine) popHeap() *Event {
	ev := e.recs.ev(e.heap[0])
	e.removeHeap(0)
	return ev
}

// removeHeap takes the entry at heap index i off the heap, moving the
// last entry into its place.
func (e *Engine) removeHeap(i int) {
	n := len(e.heap) - 1
	e.pos[e.heap[i]] = -1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.heap[i] = last
		e.fix(i)
	}
}

// fix restores the heap order at index i, whose entry moved or changed
// its key.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// up sifts the entry at heap index i toward the root, recording every
// position it and the entries it passes take.
func (e *Engine) up(i int) {
	h, pos, recs := e.heap, e.pos, e.recs
	s := h[i]
	ev := recs.ev(s)
	for i > 0 {
		p := (i - 1) / 2
		ps := h[p]
		if !before(ev, recs.ev(ps)) {
			break
		}
		h[i] = ps
		pos[ps] = int32(i)
		i = p
	}
	h[i] = s
	pos[s] = int32(i)
}

// down sifts the entry at heap index i0 toward the leaves, as up does
// toward the root, and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	h, pos, recs := e.heap, e.pos, e.recs
	s := h[i0]
	ev := recs.ev(s)
	i := i0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		cs := h[c]
		cev := recs.ev(cs)
		if r := c + 1; r < len(h) {
			if rs := h[r]; before(recs.ev(rs), cev) {
				c, cs, cev = r, rs, recs.ev(rs)
			}
		}
		if !before(cev, ev) {
			break
		}
		h[i] = cs
		pos[cs] = int32(i)
		i = c
	}
	h[i] = s
	pos[s] = int32(i)
	return i > i0
}

// recycle returns a fired or cancelled event record to the free list. Its
// position stays -1 while pooled, so a stale Cancel or Reschedule through
// a retained pointer stays a no-op until the record is reused.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev.slot) // grows to the peak event population
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
	if ev == nil || e.pos[ev.slot] < 0 {
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
		e.pushHeap(ev.slot)
	case at == e.now:
		e.removeHeap(int(e.pos[ev.slot]))
		e.pushLane(ev)
	default:
		e.fix(int(e.pos[ev.slot]))
	}
	return true
}

// Cancel removes a pending event; cancelling a fired or already-cancelled
// event is a no-op. The cancelled record returns to the engine's free list
// immediately — see the pooling contract on Event.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || e.pos[ev.slot] < 0 {
		return
	}
	if ev.inLane {
		e.dropLane(ev)
	} else {
		e.removeHeap(int(e.pos[ev.slot]))
	}
	e.stats.Cancelled++
	e.recycle(ev)
}

// Stop makes the next (or current) Run return before firing another event.
// A Stop issued before Run starts is honoured: Run returns immediately
// without executing anything. Each Run/RunUntil return consumes at most one
// stop request, so the engine can be resumed afterwards. A broadcast is one
// event: a Stop from a continuation it resumed takes effect after its last
// waiter has run.
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
		case len(e.heap) > 0 && e.recs.ev(e.heap[0]).at <= e.now:
			ev = e.popHeap()
		case e.laneHead < len(e.lane):
			s := e.lane[e.laneHead]
			if e.laneHead++; e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
			if s < 0 { // tombstone of a cancelled or moved entry
				continue
			}
			ev = e.recs.ev(s)
			ev.inLane = false
			e.pos[s] = -1
			e.laneLive--
		case len(e.heap) > 0:
			if e.recs.ev(e.heap[0]).at > tmax {
				e.now = tmax
				return nil
			}
			ev = e.popHeap()
			e.now = ev.at
		default:
			if e.parked > 0 {
				return e.deadlockErr()
			}
			return nil
		}
		e.stats.Fired++
		ev.fn()
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
	names := make([]string, 0, e.parked)
	for _, t := range e.waiting {
		if t.parked {
			names = append(names, t.Name()+" (waiting "+t.sig.name()+")")
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
func (e *Engine) Pending() int { return len(e.heap) + e.laneLive }

// LiveTasks reports the number of inline tasks that have started and not
// yet finished.
func (e *Engine) LiveTasks() int { return e.tasks }
