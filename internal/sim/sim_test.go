package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2.0, func() { order = append(order, 3) })
	e.Schedule(1.0, func() { order = append(order, 1) })
	e.Schedule(1.0, func() { order = append(order, 2) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 2.0 {
		t.Errorf("final time = %v, want 2", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-3, func() { fired = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 5 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestNaNDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on NaN delay")
		}
	}()
	NewEngine().Schedule(math.NaN(), func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is fine
	e.Cancel(nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestPendingTracksQueue(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Schedule(3, func() {})
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	e.Cancel(b)
	if e.Pending() != 2 {
		t.Fatalf("pending after cancel = %d, want 2", e.Pending())
	}
	e.Cancel(b) // double cancel must not decrement again
	if e.Pending() != 2 {
		t.Fatalf("pending after double cancel = %d, want 2", e.Pending())
	}
	if err := e.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending after firing one = %d, want 1", e.Pending())
	}
	e.Cancel(a) // cancelling a fired event is a no-op
	if e.Pending() != 1 {
		t.Fatalf("pending after cancelling fired = %d, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := e.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || e.Now() != 2.5 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Errorf("after full run fired=%v", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

// TestProcSleep: a simulated process advances virtual time by sleeping,
// and a non-positive sleep runs after the events already queued at the
// current instant instead of inline.
func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var log []string
	e.StartTask(0, "sleeper", -1, func(tk *Task) {
		log = append(log, fmt.Sprintf("start@%v", tk.Now()))
		tk.Sleep(1.5, func() {
			e.Schedule(0, func() { log = append(log, fmt.Sprintf("queued@%v", e.Now())) })
			tk.Sleep(-1, func() {
				log = append(log, fmt.Sprintf("yielded@%v", tk.Now()))
				tk.Sleep(0.5, func() {
					log = append(log, fmt.Sprintf("end@%v", tk.Now()))
					tk.Finish()
				})
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "start@0 queued@1.5 yielded@1.5 end@2"; got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
	if e.LiveTasks() != 0 {
		t.Errorf("live tasks = %d", e.LiveTasks())
	}
}

func TestSpawnAfter(t *testing.T) {
	e := NewEngine()
	start := -1.0
	e.StartTask(3, "late", -1, func(tk *Task) {
		start = tk.Now()
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 3 {
		t.Errorf("start = %v, want 3", start)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 20; i++ {
			i := i
			e.StartTask(0, "p", i, func(tk *Task) {
				tk.Sleep(float64(i%5), func() {
					log = append(log, fmt.Sprintf("%s@%v", tk.Name(), tk.Now()))
					tk.Sleep(float64(i%3), func() {
						log = append(log, fmt.Sprintf("%s@%v", tk.Name(), tk.Now()))
						tk.Finish()
					})
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 40 {
		t.Fatalf("log has %d entries, want 40", len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("two identical runs diverged")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("go")
	var woke []string
	for i := 0; i < 3; i++ {
		e.StartTask(0, "w", i, func(tk *Task) {
			s.Await(tk, func() {
				woke = append(woke, fmt.Sprintf("%s@%v", tk.Name(), tk.Now()))
				tk.Finish()
			})
		})
	}
	e.StartTask(0, "firer", -1, func(tk *Task) {
		tk.Sleep(2, func() {
			s.Fire()
			s.Fire() // double fire ok
			tk.Finish()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Waiters wake at the firing instant, in park order.
	if got, want := strings.Join(woke, " "), "w0@2 w1@2 w2@2"; got != want {
		t.Errorf("woke = %q, want %q", got, want)
	}
	// Awaiting an already-fired signal continues immediately.
	late := false
	e.StartTask(0, "late", -1, func(tk *Task) {
		s.Await(tk, func() {
			late = true
			if tk.Now() != 2 {
				t.Errorf("late waiter at %v", tk.Now())
			}
			tk.Finish()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !late {
		t.Error("late waiter never ran")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	e.StartTask(0, "stuck", -1, func(tk *Task) { s.Await(tk, tk.Finish) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error should name the process: %v", err)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("disk", 1)
	var order []string
	for i := 0; i < 3; i++ {
		e.StartTask(float64(i)*0.001, "c", i, func(tk *Task) { // staggered arrivals
			r.UseTask(tk, 1, func() {
				order = append(order, fmt.Sprintf("%s@%.3f", tk.Name(), tk.Now()))
				tk.Finish()
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "c0@1.000 c1@2.000 c2@3.000"; got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

func TestResourceConcurrency(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("server", 3)
	finish := map[string]float64{}
	for i := 0; i < 6; i++ {
		e.StartTask(0, "c", i, func(tk *Task) {
			r.UseTask(tk, 1, func() {
				finish[tk.Name()] = tk.Now()
				tk.Finish()
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// First three run [0,1], second three [1,2].
	for i := 0; i < 6; i++ {
		want := 1.0
		if i >= 3 {
			want = 2.0
		}
		if got := finish[fmt.Sprintf("c%d", i)]; got != want {
			t.Errorf("c%d finished at %v, want %v", i, got, want)
		}
	}
}

func TestResourcePanics(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic for capacity 0")
			}
		}()
		e.NewResource("bad", 0)
	}()
	r := e.NewResource("ok", 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic for a NaN service time")
		}
	}()
	e.StartTask(0, "nan", -1, func(tk *Task) { r.UseTask(tk, math.NaN(), tk.Finish) })
	e.Run()
}

// TestNestedTask: a task may start another and wait for it to signal.
func TestNestedTask(t *testing.T) {
	e := NewEngine()
	var childTime float64
	e.StartTask(0, "parent", -1, func(p *Task) {
		p.Sleep(1, func() {
			done := e.NewSignal("child-done")
			e.StartTask(0, "child", -1, func(c *Task) {
				c.Sleep(2, func() {
					childTime = c.Now()
					done.Fire()
					c.Finish()
				})
			})
			done.Await(p, func() {
				if p.Now() != 3 {
					t.Errorf("parent resumed at %v, want 3", p.Now())
				}
				p.Finish()
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 3 {
		t.Errorf("child finished at %v, want 3", childTime)
	}
	if e.LiveTasks() != 0 {
		t.Errorf("live tasks = %d", e.LiveTasks())
	}
}

func TestProcDone(t *testing.T) {
	e := NewEngine()
	p := e.StartTask(0, "quick", -1, func(tk *Task) { tk.Finish() })
	if p.Done() {
		t.Error("done before run")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Error("not done after run")
	}
	if p.Engine() != e {
		t.Error("Engine() mismatch")
	}
}

func TestStopBeforeRunIsHonoured(t *testing.T) {
	// A Stop issued before Run starts — e.g. by a failed synchronous job
	// launch — must prevent the run entirely. An earlier revision reset
	// the flag on entry, silently running the whole simulation and
	// delaying the launch error until completion.
	e := NewEngine()
	count := 0
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	e.Stop()
	if !e.Stopped() {
		t.Fatal("Stopped() false after Stop()")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("stopped engine fired %d events, want 0", count)
	}
	if e.Stopped() {
		t.Error("stop request not consumed by Run")
	}
}

func TestResumeAfterStop(t *testing.T) {
	// Each Run consumes one stop request, so a stopped engine can resume.
	e := NewEngine()
	count := 0
	for i := 0; i < 6; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("first run fired %d events, want 2", count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Errorf("after resume count = %d, want 6", count)
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	e := NewEngine()
	var fired []string
	ev := e.Schedule(5, func() { fired = append(fired, "moved") })
	e.Schedule(3, func() { fired = append(fired, "fixed") })
	if !e.Reschedule(ev, 1) {
		t.Fatal("Reschedule on a pending event returned false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "moved" || fired[1] != "fixed" {
		t.Errorf("fire order = %v, want [moved fixed]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("now = %v, want 3", e.Now())
	}
}

// TestRescheduleResequences: a rescheduled event behaves exactly like a
// cancelled-and-reposted one — at its new instant it fires after events
// that were already queued there, even if it was created first.
func TestRescheduleResequences(t *testing.T) {
	e := NewEngine()
	var fired []string
	ev := e.Schedule(3, func() { fired = append(fired, "rescheduled") })
	e.Schedule(4, func() { fired = append(fired, "earlier-queued") })
	e.Schedule(2, func() {
		if !e.Reschedule(ev, 4) {
			t.Error("Reschedule failed")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"earlier-queued", "rescheduled"}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("fire order = %v, want %v", fired, want)
	}
}

func TestReschedulePastClampsToNow(t *testing.T) {
	e := NewEngine()
	ran := false
	var ev *Event
	ev = e.Schedule(10, func() { ran = true })
	e.Schedule(5, func() {
		if !e.Reschedule(ev, 1) {
			t.Error("Reschedule failed")
		}
		if ev.Time() != 5 {
			t.Errorf("event time = %v, want clamped to 5", ev.Time())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("rescheduled event never fired")
	}
	if e.Now() != 5 {
		t.Errorf("now = %v, want 5", e.Now())
	}
}

func TestRescheduleDeadEventsRefused(t *testing.T) {
	e := NewEngine()
	if e.Reschedule(nil, 1) {
		t.Error("Reschedule(nil) returned true")
	}
	cancelled := e.Schedule(1, func() {})
	e.Cancel(cancelled)
	if e.Reschedule(cancelled, 2) {
		t.Error("Reschedule on a cancelled event returned true")
	}
	fired := e.Schedule(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Reschedule(fired, 2) {
		t.Error("Reschedule on a fired event returned true")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after refused reschedules", e.Pending())
	}
}

func TestRescheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on NaN reschedule")
		}
	}()
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.Reschedule(ev, math.NaN())
}

// TestRescheduleInfPanics: moving an event to +Inf is refused, and the
// event stays where it was.
func TestRescheduleInfPanics(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	func() {
		defer func() {
			if r := recover(); r != "sim: rescheduled to +Inf time" {
				t.Errorf("recovered %v, want the +Inf panic", r)
			}
		}()
		e.Reschedule(ev, math.Inf(1))
	}()
	if ev.Time() != 1 || e.Pending() != 1 {
		t.Errorf("event at %v with %d pending, want it untouched at 1", ev.Time(), e.Pending())
	}
}

// TestSetPollFiresPerEventBatch: the poll hook runs every n fired
// events, injects nothing, and can stop the engine mid-run; removal
// works.
func TestSetPollFiresPerEventBatch(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { fired++ })
	}
	polls := 0
	e.SetPoll(3, func() { polls++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 || polls != 3 { // after events 3, 6, 9
		t.Errorf("fired %d events with %d polls, want 10 and 3", fired, polls)
	}
	e.SetPoll(0, nil)
	e.Schedule(1, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if polls != 3 {
		t.Errorf("removed poll hook still ran (%d polls)", polls)
	}

	// A poll that calls Stop halts the run at the batch boundary.
	e2 := NewEngine()
	ran := 0
	for i := 0; i < 100; i++ {
		e2.Schedule(float64(i), func() { ran++ })
	}
	e2.SetPoll(5, func() {
		if ran >= 10 {
			e2.Stop()
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Errorf("stop via poll ran %d events, want 10", ran)
	}
}
