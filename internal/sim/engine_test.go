package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestScheduleAtNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on NaN absolute time")
		}
	}()
	NewEngine().ScheduleAt(math.NaN(), func() {})
}

// TestScheduleAtInfPanics: an event at +Inf is refused like a NaN one,
// and so is an infinite delay, which lands there. -Inf clamps to now.
func TestScheduleAtInfPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"ScheduleAt", func(e *Engine) { e.ScheduleAt(math.Inf(1), func() {}) }},
		{"Schedule", func(e *Engine) { e.Schedule(math.Inf(1), func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "sim: scheduled at +Inf time" {
					t.Errorf("recovered %v, want the +Inf panic", r)
				}
			}()
			tc.schedule(NewEngine())
		})
	}
	e := NewEngine()
	if ev := e.ScheduleAt(math.Inf(-1), func() {}); ev.Time() != 0 {
		t.Errorf("-Inf scheduled at %v, want now (0)", ev.Time())
	}
}

// TestRunUntilReentryPanics: an event that calls RunUntil would fire
// later events inside itself, out of (time, sequence) order, so the
// nested call panics with a named message instead. The guard resets as
// the panic unwinds, so the engine runs on after a recover.
func TestRunUntilReentryPanics(t *testing.T) {
	e := NewEngine()
	later := false
	e.Schedule(1, func() { _ = e.RunUntil(2) })
	e.Schedule(2, func() { later = true })
	func() {
		defer func() {
			if r := recover(); r != "sim: RunUntil called from inside an event" {
				t.Errorf("recovered %v, want the re-entry panic", r)
			}
		}()
		_ = e.Run()
	}()
	if later {
		t.Fatal("the nested RunUntil fired the t=2 event inside the t=1 event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !later || e.Now() != 2 {
		t.Errorf("after the recover: later=%v now=%v, want the t=2 event fired", later, e.Now())
	}
}

// TestRunUntilNeverRewindsClock: a horizon before Now fires nothing and
// leaves the clock where it was, with or without events pending.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() { fired = true })
	for _, tmax := range []float64{5, 3} {
		if err := e.RunUntil(tmax); err != nil {
			t.Fatal(err)
		}
		if e.Now() != 5 {
			t.Fatalf("after RunUntil(%v): now = %v, want 5", tmax, e.Now())
		}
	}
	if fired || e.Pending() != 1 {
		t.Fatalf("fired=%v pending=%d, want the t=10 event still queued", fired, e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 10 {
		t.Errorf("fired=%v now=%v after Run", fired, e.Now())
	}
	if err := e.RunUntil(4); err != nil || e.Now() != 10 {
		t.Errorf("RunUntil(4) on an empty queue: err=%v now=%v, want now 10", err, e.Now())
	}
}

// TestStatsExactCounts pins the engine's work counters on a fixed script
// that touches both queues: same-instant wakes, future events, a cancel
// in each queue and a reschedule in each direction, and two Fires, of a
// signal three tasks wait on and of one a single task waits on, each
// one event.
func TestStatsExactCounts(t *testing.T) {
	e := NewEngine()
	three, one := e.NewSignal("three"), e.NewSignal("one")
	// Four start events, in the lane.
	for i := 0; i < 3; i++ {
		e.StartTask(0, "w", i, func(tk *Task) { three.Await(tk, tk.Finish) })
	}
	e.StartTask(0, "v", -1, func(tk *Task) { one.Await(tk, tk.Finish) })

	e.Schedule(1, func() { // heap
		three.Fire()                              // a broadcast: lane
		one.Fire()                                // a single wake: lane
		e.Schedule(0, func() {})                  // lane
		e.Schedule(1e-300, func() {})             // rounds to now: lane
		e.Cancel(e.Schedule(0, func() {}))        // lane, cancelled
		e.Reschedule(e.Schedule(0, func() {}), 3) // lane, moved to the heap
		e.Reschedule(e.Schedule(2, func() {}), 0) // heap, moved to the lane
		e.Cancel(e.Schedule(5, func() {}))        // heap, cancelled
	})
	e.Schedule(2, func() {}) // heap
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Scheduled: 14, Fired: 12, Cancelled: 2, Rescheduled: 2, LaneEvents: 10, HeapPushes: 4, Woken: 4}
	if got := e.Stats(); got != want {
		t.Errorf("stats = %+v\nwant    %+v", got, want)
	}
	if e.Now() != 3 || e.LiveTasks() != 0 {
		t.Errorf("now = %v with %d tasks live, want 3 (the moved event's time) and none", e.Now(), e.LiveTasks())
	}
}

// TestLaneCancelKeepsPendingExact: cancelling same-instant events leaves
// tombstones that Pending does not count and RunUntil skips.
func TestLaneCancelKeepsPendingExact(t *testing.T) {
	e := NewEngine()
	var order []int
	evs := make([]*Event, 4)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(0, func() { order = append(order, i) })
	}
	e.Cancel(evs[1])
	e.Cancel(evs[3])
	e.Cancel(evs[3])
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 2]" || e.Pending() != 0 {
		t.Errorf("order = %v, pending = %d", order, e.Pending())
	}
}

// TestStatsAddCoversEveryField: Stats.Add sums every counter, so a field
// added to Stats without a line in Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Int() != 2*int64(i+1) {
			t.Errorf("Add sums %s to %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), 2*(i+1))
		}
	}
}

// TestQueuesHoldNoPointers: the heap, the lane, the free list and the
// position index hold no pointer, so moving one of their entries pays no
// GC write barrier. Each one's element type is walked through arrays and
// struct fields, and a pointer, interface, func, map, slice, string,
// channel or unsafe pointer anywhere in it fails.
func TestQueuesHoldNoPointers(t *testing.T) {
	engine := reflect.TypeOf(Engine{})
	for _, name := range []string{"heap", "lane", "free", "pos"} {
		f, ok := engine.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Errorf("Engine.%s is not a slice field", name)
			continue
		}
		if p := pointerIn(f.Type.Elem()); p != "" {
			t.Errorf("Engine.%s's entries hold a pointer: %s", name, p)
		}
	}
}

// pointerIn names the first part of typ that holds a pointer, or returns
// "" when none does.
func pointerIn(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Map,
		reflect.Slice, reflect.String, reflect.Chan, reflect.UnsafePointer:
		return typ.String()
	case reflect.Array:
		return pointerIn(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerIn(typ.Field(i).Type); p != "" {
				return typ.Name() + "." + typ.Field(i).Name + " " + p
			}
		}
	}
	return ""
}
