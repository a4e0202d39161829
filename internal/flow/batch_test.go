package flow

import (
	"fmt"
	"testing"

	"pfsim/internal/sim"
)

// staggeredBatch admits, on net n, one batch of flows of sizes MB, each
// over a link of its own at 100 MB/s, so flow i drains at sizes[i]/100 s.
func staggeredBatch(n *Net, label string, sizes ...float64) *Batch {
	specs := make([]FlowSpec, len(sizes))
	for i, mb := range sizes {
		name := fmt.Sprintf("%s%d", label, i)
		specs[i] = FlowSpec{Name: name, SizeMB: mb, Path: []*Link{n.NewLink(name, Const(100))}}
	}
	return n.StartBatch(specs)
}

// TestBatchWakesOnceAtItsLastFlow: a batch whose flows finish at t = 1, 2
// and 3 wakes its waiter once, at 3, with one scheduled wake. Counted
// against the same run with nobody waiting, a waiter costs its task's
// start event and that wake, not a wake per flow.
func TestBatchWakesOnceAtItsLastFlow(t *testing.T) {
	for _, mode := range []solverMode{defaultMode, refMode} {
		run := func(wait bool) (sim.Stats, []float64) {
			e := sim.NewEngine()
			n := NewNet(e)
			n.UseReferenceSolver(mode.reference)
			b := staggeredBatch(n, "f", 300, 100, 200)
			var wakes []float64
			if wait {
				e.StartTask(0, "waiter", -1, func(tk *sim.Task) {
					b.Await(tk, func() {
						wakes = append(wakes, tk.Now())
						tk.Finish()
					})
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return e.Stats(), wakes
		}
		alone, _ := run(false)
		waited, wakes := run(true)
		if len(wakes) != 1 || wakes[0] != 3 {
			t.Errorf("%s: waiter woke at %v, want once at 3", mode.name, wakes)
		}
		if extra := waited.Scheduled - alone.Scheduled; extra != 2 {
			t.Errorf("%s: a waiter scheduled %d events, want 2 (its start and one wake)", mode.name, extra)
		}
	}
}

// TestZeroSizedBatchRunsAtOnce: a batch of zero-sized flows has finished
// at admission, so its wait runs k inside the caller's event, without
// scheduling one.
func TestZeroSizedBatchRunsAtOnce(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	ran := false
	e.StartTask(0, "caller", -1, func(tk *sim.Task) {
		b := staggeredBatch(n, "z", 0, 0)
		before := e.Stats().Scheduled
		b.Await(tk, func() { ran = true })
		if !ran {
			t.Error("the wait on a finished batch deferred its continuation")
		}
		if got := e.Stats().Scheduled - before; got != 0 {
			t.Errorf("the wait on a finished batch scheduled %d events, want 0", got)
		}
		tk.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchesEndingTogetherWakeInAdmissionOrder: two batches whose last
// flows drain at the same instant wake their waiters in the order the
// batches were admitted, not the order the waiters parked in.
func TestBatchesEndingTogetherWakeInAdmissionOrder(t *testing.T) {
	for _, mode := range []solverMode{defaultMode, refMode} {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(mode.reference)
		first := staggeredBatch(n, "a", 100, 300)
		second := staggeredBatch(n, "b", 300, 100)
		var order []string
		wait := func(name string, b *Batch) {
			e.StartTask(0, name, -1, func(tk *sim.Task) {
				b.Await(tk, func() {
					order = append(order, fmt.Sprintf("%s@%v", name, tk.Now()))
					tk.Finish()
				})
			})
		}
		wait("second", second)
		wait("first", first)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(order); got != "[first@3 second@3]" {
			t.Errorf("%s: wakes %s, want [first@3 second@3]", mode.name, got)
		}
	}
}
