package sim

import "testing"

// churn is one round of event-queue traffic with every callback bound
// once: events at equal and at different future times, clamped delays
// and deadlines, cancellations from the lane, from the heap and of
// records already cancelled, a bounded run that stops the clock short of
// the next event, a Stop, and a polled run.
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
	if err := e.RunUntil(now + 0.5); err != nil { // the lane; the clock stops at the bound
		panic(err)
	}
	if err := e.RunUntil(now + 1); err != nil { // the stop ends this run
		panic(err)
	}
	e.SetPoll(1, c.poll)
	if err := e.Run(); err != nil { // the tick due at the stop's instant, polled
		panic(err)
	}
	e.SetPoll(0, nil)
}

// TestEventChurnAllocs: scheduling, cancelling, stopping and polling
// allocate nothing once the engine's event pool and queues have grown
// to their peak, whichever queue an event sits in and however it
// leaves it.
func TestEventChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := newChurn()
	c.round()
	allocs := testing.AllocsPerRun(100, c.round)
	// The warm-up round, AllocsPerRun's own and the 100 measured.
	if want := 102 * 3; c.fired != want || c.polled != 102 {
		t.Fatalf("%d callbacks and %d polls over 102 rounds, want %d and 102", c.fired, c.polled, want)
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
