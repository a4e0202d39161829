package sim

import "testing"

// churn is one round of event-queue traffic with every callback bound
// once: events at equal and at different future times, clamped delays
// and deadlines, cancellations from the lane, from the heap and of
// records already cancelled, each move Reschedule makes, a bounded run
// that stops the clock short of the next event, a Stop, and a polled run.
type churn struct {
	e                *Engine
	fired, polled    int
	tick, stop, poll func()
}

func newChurn() *churn {
	c := &churn{e: NewEngine()}
	c.tick = func() { c.fired++ }
	c.stop = func() { c.fired++; c.e.Stop() }
	c.poll = func() { c.polled++ }
	return c
}

// churnFired and churnPolled are the callbacks one round fires, and the
// ones its polled run fires.
const churnFired, churnPolled = 7, 3

func (c *churn) round() {
	e := c.e
	now := e.Now()
	if err := e.RunUntil(now - 1); err != nil { // a bound in the past fires nothing
		panic(err)
	}
	e.ScheduleAt(now+1, c.stop)
	e.ScheduleAt(now+1, c.tick) // ties with the stop: fires after it, by sequence
	late := e.Schedule(2, c.tick)
	lane := e.Schedule(-1, c.tick) // clamped to now: the lane
	e.ScheduleAt(now-5, c.tick)    // clamped to now: the lane, behind it
	e.Cancel(lane)                 // leaves a tombstone in the lane
	e.Cancel(lane)                 // already cancelled: a no-op
	e.Cancel(late)                 // out of the heap
	e.Cancel(nil)
	e.Reschedule(e.Schedule(0, c.tick), now)   // lane to the lane's tail
	e.Reschedule(e.Schedule(0, c.tick), now+3) // lane to heap
	e.Reschedule(e.Schedule(3, c.tick), now)   // heap to lane
	moved := e.ScheduleAt(now+4, c.tick)       // the heap's latest event
	e.Reschedule(moved, now+0.75)              // in the heap, up to its root
	if e.pos[moved.slot] != 0 {
		panic("the move up stopped short of the heap's root")
	}
	e.Reschedule(moved, now+5) // in the heap, down from its root
	if e.pos[moved.slot] == 0 {
		panic("the move down left the event at the heap's root")
	}
	if err := e.RunUntil(now + 0.5); err != nil { // the lane; the clock stops at the bound
		panic(err)
	}
	if err := e.RunUntil(now + 1); err != nil { // the stop ends this run
		panic(err)
	}
	e.SetPoll(1, c.poll)
	if err := e.Run(); err != nil { // the tick due at the stop's instant and the two moved to the heap, polled
		panic(err)
	}
	e.SetPoll(0, nil)
}

// TestEventChurnAllocs: scheduling, cancelling, rescheduling, stopping
// and polling allocate nothing once the engine's event pool and queues
// have grown to their peak, whichever queue an event sits in and however
// it moves between them or leaves them.
func TestEventChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := newChurn()
	c.round()
	allocs := testing.AllocsPerRun(100, c.round)
	// The warm-up round, AllocsPerRun's own and the 100 measured.
	if c.fired != 102*churnFired || c.polled != 102*churnPolled {
		t.Fatalf("%d callbacks and %d polls over 102 rounds, want %d and %d",
			c.fired, c.polled, 102*churnFired, 102*churnPolled)
	}
	if allocs != 0 {
		t.Errorf("a round of event churn allocated %.1f times, want 0", allocs)
	}
}

// doubleWait is a task waiting on two signals at once, then on one that
// has fired: its continuations are bound once.
type doubleWait struct {
	t                  *Task
	first, second      *Signal
	woken, synchronous int
	onWake, onFired    func()
}

func (d *doubleWait) round() {
	d.first.Rearm("first", -1)
	d.second.Rearm("second", -1)
	d.first.Await(d.t, d.onWake)
	d.second.Await(d.t, d.onWake) // parked already: the latest wait is recorded
	d.first.Fire()                // unparks the task
	d.second.Fire()               // finds it unparked
	d.first.Await(d.t, d.onFired) // fired: runs at once
	if err := d.t.eng.Run(); err != nil {
		panic(err)
	}
}

// TestDoubleWaitAllocs: a task parked on two signals at once, woken by
// each, and a wait on a fired signal allocate nothing once the signals'
// waiter lists and the engine's parked list have grown.
func TestDoubleWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine()
	d := &doubleWait{first: e.NewSignal("first"), second: e.NewSignal("second")}
	d.onWake = func() { d.woken++ }
	d.onFired = func() { d.synchronous++ }
	d.first.Fire()
	d.second.Fire()
	e.StartTask(0, "waiter", -1, func(tk *Task) { d.t = tk })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.round()
	allocs := testing.AllocsPerRun(100, d.round)
	if d.woken != 2*102 || d.synchronous != 102 {
		t.Fatalf("%d wakes and %d synchronous runs over 102 rounds, want %d and 102", d.woken, d.synchronous, 2*102)
	}
	if allocs != 0 {
		t.Errorf("a round of double waits allocated %.1f times, want 0", allocs)
	}
	d.t.Finish()
}

// holdCycle is a round of holds on a unit resource with the continuation
// bound once: one granted at once, two queued behind it, each handed the
// slot by a release and started at its zero-delay start event.
type holdCycle struct {
	r     *Resource
	t     *Task
	ended int
	onEnd func()
}

func (h *holdCycle) round() {
	h.r.UseTask(h.t, 1, h.onEnd)   // granted at once
	h.r.UseTask(h.t, 0.5, h.onEnd) // queued: starts at the first one's end
	h.r.UseTask(h.t, 0, h.onEnd)   // queued behind it
	if err := h.t.eng.Run(); err != nil {
		panic(err)
	}
}

// TestUseTaskCycleAllocs: a UseTask hold, uncontended or queued, and the
// release that hands its slot on allocate nothing once the resource's
// queue and held list and the engine's event pool have grown: the hold's
// continuation and service time wait in the resource's own entries, and
// its start and end events call methods bound once per resource.
func TestUseTaskCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine()
	h := &holdCycle{r: e.NewResource("mds", 1)}
	h.onEnd = func() { h.ended++ }
	e.StartTask(0, "holder", -1, func(tk *Task) { h.t = tk })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h.round()
	allocs := testing.AllocsPerRun(100, h.round)
	if h.ended != 3*102 {
		t.Fatalf("%d holds ended over 102 rounds, want %d", h.ended, 3*102)
	}
	if allocs != 0 {
		t.Errorf("a round of holds allocated %.1f times, want 0", allocs)
	}
	h.t.Finish()
}
