package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestTaskSleepChain: a task's continuation chain advances virtual time
// from its delayed start, and Finish retires it.
func TestTaskSleepChain(t *testing.T) {
	e := NewEngine()
	var times []float64
	tk := e.StartTask(0.5, "worker", 0, func(t *Task) {
		times = append(times, t.Now())
		t.Sleep(1, func() {
			times = append(times, t.Now())
			t.Sleep(2, func() {
				times = append(times, t.Now())
				t.Finish()
			})
		})
	})
	if e.LiveTasks() != 1 {
		t.Fatalf("LiveTasks = %d before run, want 1", e.LiveTasks())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.5, 3.5}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
	if !tk.Done() || e.LiveTasks() != 0 {
		t.Errorf("task not retired: done=%v live=%d", tk.Done(), e.LiveTasks())
	}
	if tk.Name() != "worker0" {
		t.Errorf("Name = %q, want worker0", tk.Name())
	}
}

// TestTaskAwaitFiredIsSynchronous: awaiting an already-fired signal runs
// the continuation inline without touching the event queue.
func TestTaskAwaitFiredIsSynchronous(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("up")
	s.Fire()
	ran := false
	e.StartTask(0, "t", -1, func(tk *Task) {
		s.Await(tk, func() { ran = true })
		if !ran {
			t.Error("Await on fired signal deferred its continuation")
		}
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestResourceMixedFIFO alternates long and short holds through a
// capacity-1 resource: slots must be granted strictly in arrival order,
// whatever each hold's service time, with the uncontended first arrival
// granted at once.
func TestResourceMixedFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("mds", 1)
	var order []string
	for i := 0; i < 4; i++ {
		service := 1.0
		if i%2 == 1 {
			service = 0.25
		}
		e.StartTask(float64(i)*0.001, "t", i, func(tk *Task) {
			r.UseTask(tk, service, func() {
				order = append(order, fmt.Sprintf("%s@%g", tk.Name(), tk.Now()))
				tk.Finish()
			})
			if i == 0 && r.InUse() != 1 {
				t.Errorf("the first arrival was not granted at once: %d slots held", r.InUse())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "t0@1 t1@1.25 t2@2.25 t3@2.5"; got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestResourceOwnEndTimes: a capacity-2 resource whose holds have unequal
// service times resumes each caller's own continuation at that caller's
// own end time, though the holds end in another order than they began:
// the resource, not a closure per call, remembers whose service ends.
// Holds that end at one instant resume in grant order, and a release
// hands its slot to the head of the queue.
func TestResourceOwnEndTimes(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("pair", 2)
	type call struct {
		name            string
		arrive, service float64
	}
	calls := []call{
		{"a", 0, 3},   // [0, 3]
		{"b", 0, 1},   // [0, 1]
		{"c", 0, 1},   // [1, 2], b's slot
		{"d", 0, 2},   // [2, 4], c's slot
		{"e", 0.5, 1}, // [3, 4], a's slot: ends with d, granted after it
		{"f", 0.5, 0}, // [4, 4], d's slot
	}
	var got []string
	for _, c := range calls {
		e.StartTask(c.arrive, c.name, -1, func(tk *Task) {
			r.UseTask(tk, c.service, func() {
				got = append(got, fmt.Sprintf("%s@%g", tk.Name(), tk.Now()))
				tk.Finish()
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(got, " "), "b@1 c@2 a@3 d@4 e@4 f@4"; got != want {
		t.Errorf("holds ended %q, want %q", got, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestTaskDeadlockReport: every stuck task appears in the deadlock error
// exactly once, sorted by name, with the signal it waits on. A task that
// parked twice is reported with its latest wait; a task woken from a
// signal that then held a resource and waits on another signal is
// reported with the latter. A task that parked, woke and finished before
// the deadlock is absent, and so are one that was woken and then slept
// without finishing and one that queued on a resource: every hold ends,
// so a resource queue never deadlocks.
func TestTaskDeadlockReport(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	later := e.NewSignal("later")
	start := e.NewSignal("start")
	early := e.NewSignal("early")
	r := e.NewResource("narrow", 1)
	e.Schedule(0.5, early.Fire)
	e.StartTask(0, "g-finished", -1, func(tk *Task) {
		early.Await(tk, tk.Finish)
	})
	e.StartTask(0, "h-sleeper", -1, func(tk *Task) {
		early.Await(tk, func() {
			tk.Sleep(1, func() {}) // sleeps to the deadlock instant and never finishes
		})
	})
	e.StartTask(0, "a-task", 7, func(tk *Task) {
		s.Await(tk, tk.Finish)
	})
	e.StartTask(0, "b-holder", -1, func(tk *Task) {
		r.UseTask(tk, 1, func() {
			s.Await(tk, tk.Finish)
		})
	})
	e.StartTask(0, "c-queued", -1, func(tk *Task) {
		r.UseTask(tk, 0.25, tk.Finish) // queues behind b-holder, done at 1.25
	})
	e.StartTask(0, "d-twice", -1, func(tk *Task) {
		s.Await(tk, tk.Finish)
		later.Await(tk, tk.Finish)
	})
	e.StartTask(0, "e-woken", -1, func(tk *Task) {
		start.Await(tk, func() {
			r.UseTask(tk, 0.5, func() {
				later.Await(tk, tk.Finish)
			})
		})
	})
	e.StartTask(1.5, "f-starter", -1, func(tk *Task) {
		start.Fire()
		tk.Finish()
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error")
	}
	want := "sim: deadlock at t=2.000000: 4 blocked process(es): [" +
		"a-task7 (waiting never) " +
		"b-holder (waiting never) " +
		"d-twice (waiting later) " +
		"e-woken (waiting later)]"
	if got := err.Error(); got != want {
		t.Errorf("deadlock report:\n got %q\nwant %q", got, want)
	}
}

// TestWaitingListEmptiesAsTasksFinish: the engine lists a task from its
// first park until Finish, so after 10,000 tasks have each parked once and
// finished, none is listed or counted parked, and the list never held
// more than one wave of tasks parked at once: retained state does not
// grow with work.
func TestWaitingListEmptiesAsTasksFinish(t *testing.T) {
	const waves, perWave = 100, 100
	e := NewEngine()
	for w := 0; w < waves; w++ {
		wave := e.NewSignal("wave")
		for i := 0; i < perWave; i++ {
			e.StartTask(float64(w), "t", w*perWave+i, func(tk *Task) { wave.Await(tk, tk.Finish) })
		}
		e.Schedule(float64(w)+0.5, wave.Fire)
	}
	peak := 0
	e.SetPoll(1, func() { peak = max(peak, len(e.waiting)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.waiting) != 0 || e.parked != 0 || e.LiveTasks() != 0 {
		t.Errorf("after %d tasks parked once and finished: %d listed, %d parked, %d live, want none",
			waves*perWave, len(e.waiting), e.parked, e.LiveTasks())
	}
	if peak != perWave {
		t.Errorf("the waiting list peaked at %d tasks, want one wave, %d", peak, perWave)
	}
}

// TestDeadlockReportNamesSignalsLazily: a signal made by NewSignalN is
// named label+id in the report, and parking on it up to its capacity
// leaves its waiter list where it was allocated.
func TestDeadlockReportNamesSignalsLazily(t *testing.T) {
	e := NewEngine()
	s := e.NewSignalN("world-coll-", 3, 2)
	backing := &s.waiters[:1][0]
	for i := 0; i < 2; i++ {
		e.StartTask(0, "rank", i, func(tk *Task) { s.Await(tk, tk.Finish) })
	}
	err := e.Run()
	want := "sim: deadlock at t=0.000000: 2 blocked process(es): [rank0 (waiting world-coll-3) rank1 (waiting world-coll-3)]"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock report:\n got %v\nwant %q", err, want)
	}
	if &s.waiters[0] != backing {
		t.Error("waiter list grew past its sized capacity")
	}
}

// TestTaskFinishTwicePanics: double-retirement is a bug in the workload's
// continuation chain and must fail loudly.
func TestTaskFinishTwicePanics(t *testing.T) {
	e := NewEngine()
	e.StartTask(0, "t", -1, func(tk *Task) {
		tk.Finish()
		defer func() {
			if recover() == nil {
				t.Error("want panic on second Finish")
			}
		}()
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalRearm: a fired signal re-armed under a new id blocks again,
// is reported under its new name, and parks its new waiters in the list
// its first waiters grew; re-arming a signal that has not fired panics.
func TestSignalRearm(t *testing.T) {
	e := NewEngine()
	s := e.NewSignalN("world-coll-", 0, 2)
	backing := &s.waiters[:1][0]
	woken := 0
	for i := 0; i < 2; i++ {
		e.StartTask(0, "rank", i, func(tk *Task) {
			s.Await(tk, func() {
				woken++
				tk.Sleep(1, func() { s.Await(tk, tk.Finish) })
			})
		})
	}
	e.Schedule(0.5, func() {
		s.Fire()
		s.Rearm("world-coll-", 2)
	})
	err := e.Run()
	want := "sim: deadlock at t=1.500000: 2 blocked process(es): [rank0 (waiting world-coll-2) rank1 (waiting world-coll-2)]"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock report:\n got %v\nwant %q", err, want)
	}
	if woken != 2 {
		t.Errorf("%d of 2 waiters woken by the first Fire", woken)
	}
	if &s.waiters[0] != backing {
		t.Error("re-armed signal did not reuse its waiter list")
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic re-arming an unfired signal")
		}
	}()
	s.Rearm("world-coll-", 4)
}

// resourceCycler is one task taking a unit resource rounds times: hold
// it for one second, then take it again. Its continuation is bound once,
// so the only allocations a cycle can make are the resource's and the
// engine's.
type resourceCycler struct {
	t      *Task
	r      *Resource
	left   int
	onHeld func()
}

func (c *resourceCycler) cycle() {
	if c.left == 0 {
		c.t.Finish()
		return
	}
	c.left--
	c.r.UseTask(c.t, 1, c.onHeld)
}

// resourceCycleAllocs returns the allocations of tasks cyclers contending
// for a unit resource for rounds cycles each, engine and tasks included.
func resourceCycleAllocs(tasks, rounds int) float64 {
	return testing.AllocsPerRun(3, func() {
		e := NewEngine()
		r := e.NewResource("mds", 1)
		for i := 0; i < tasks; i++ {
			e.StartTask(0, "c", i, func(tk *Task) {
				c := &resourceCycler{t: tk, r: r, left: rounds}
				c.onHeld = c.cycle
				c.cycle()
			})
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		if r.QueueLen() != 0 || r.InUse() != 0 {
			panic("resource not drained")
		}
	})
}

// TestResourceQueueAllocsBoundedByDepth: a resource contended without
// pause — its queue never drains until the end — allocates for its peak
// queue depth, not for every acquire and release. Ten times the cycles
// at the same depth allocate nothing more; twice the depth may allocate
// more, for the deeper queue and the larger task population.
func TestResourceQueueAllocsBoundedByDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, tasks := range []int{4, 32} {
		short, long := resourceCycleAllocs(tasks, 10), resourceCycleAllocs(tasks, 100)
		if long != short {
			t.Errorf("%d tasks: %v allocations for 10 cycles each, %v for 100: the queue allocates per acquire",
				tasks, short, long)
		}
	}
}
