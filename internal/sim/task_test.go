package sim

import (
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

// TestResourceMixedFIFO alternates UseTask holders with tasks that
// acquire and release by hand through a capacity-1 resource: slots must be
// granted strictly in arrival order, with the uncontended first arrival
// taking the synchronous fast path.
func TestResourceMixedFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("mds", 1)
	var order []string
	for i := 0; i < 4; i++ {
		i := i
		e.StartTask(float64(i)*0.001, "t", i, func(tk *Task) {
			if i%2 == 0 {
				r.UseTask(tk, 1, func() {
					order = append(order, tk.Name())
					tk.Finish()
				})
				return
			}
			r.AcquireTask(tk, func() {
				tk.Sleep(1, func() {
					r.Release()
					order = append(order, tk.Name())
					tk.Finish()
				})
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "t0 t1 t2 t3"; got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
	if e.Now() != 4 {
		t.Errorf("last release at %v, want 4 (four serialized 1 s holds)", e.Now())
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestTaskDeadlockReport: every stuck task appears in the deadlock error
// exactly once, sorted by name, with what it waits or queues on. A task
// that parked twice is reported with its latest wait; a task woken from a
// signal that then queued on a resource is reported with the resource.
// A task that parked, woke and finished before the deadlock is absent, and
// so is one that was woken and then slept without finishing.
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
		r.AcquireTask(tk, func() {
			s.Await(tk, tk.Finish) // holds the slot forever
		})
	})
	e.StartTask(0, "c-task", -1, func(tk *Task) {
		r.AcquireTask(tk, tk.Finish)
	})
	e.StartTask(0, "d-twice", -1, func(tk *Task) {
		s.Await(tk, tk.Finish)
		later.Await(tk, tk.Finish)
	})
	e.StartTask(0, "e-woken", -1, func(tk *Task) {
		start.Await(tk, func() {
			r.AcquireTask(tk, tk.Finish)
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
	want := "sim: deadlock at t=1.500000: 5 blocked process(es): [" +
		"a-task7 (waiting never) " +
		"b-holder (waiting never) " +
		"c-task (queued on narrow) " +
		"d-twice (waiting later) " +
		"e-woken (queued on narrow)]"
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

// resourceCycler is one task taking a unit resource rounds times: acquire,
// hold for one second, release. Its continuations are bound once, so the
// only allocations a cycle can make are the resource's and the engine's.
type resourceCycler struct {
	t       *Task
	r       *Resource
	left    int
	onGrant func()
	onHeld  func()
}

func (c *resourceCycler) cycle() {
	if c.left == 0 {
		c.t.Finish()
		return
	}
	c.left--
	c.r.AcquireTask(c.t, c.onGrant)
}

func (c *resourceCycler) granted() { c.t.Sleep(1, c.onHeld) }

func (c *resourceCycler) held() {
	c.r.Release()
	c.cycle()
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
				c.onGrant, c.onHeld = c.granted, c.held
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
