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

// doneCounter is a DoneHook that counts the flows it is told of.
type doneCounter int

func (d *doneCounter) FlowDone() { *d++ }

// TestDrainedFlowsLetGo: a drained flow drops its hook once told and its
// batch once counted off, so the finished flows that linger in the active
// list and in their component's list keep no batch, done signal, waiter
// or hook alive. Observers still see every flow finish before the batch's
// wait ends.
func TestDrainedFlowsLetGo(t *testing.T) {
	for _, mode := range []solverMode{defaultMode, refMode} {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(mode.reference)
		obs := &countingObserver{}
		n.Observe(obs)
		l := n.NewLink("l", Const(100))
		var hooks doneCounter
		specs := make([]FlowSpec, 8)
		for i := range specs {
			specs[i] = FlowSpec{Name: fmt.Sprintf("f%d", i), SizeMB: float64(100 * (i + 1)), OnDone: &hooks, Path: []*Link{l}}
		}
		b := n.StartBatch(specs)
		seen := -1
		e.StartTask(0, "wait", -1, func(tk *sim.Task) {
			b.Await(tk, func() {
				seen = obs.finished
				tk.Finish()
			})
		})
		// lingering checks the finished flows still listed and counts them.
		lingering := func(when string) int {
			lists := [][]*Flow{n.activeFlows}
			for _, c := range n.comps {
				if !c.dead {
					lists = append(lists, c.flows)
				}
			}
			k := 0
			for _, list := range lists {
				for _, f := range list {
					if !f.finished {
						continue
					}
					k++
					if f.batch != nil || f.onDone != nil {
						t.Errorf("%s: %s: finished flow %s still holds its batch (%v) or its hook (%v)",
							mode.name, when, f.Name(), f.batch != nil, f.onDone != nil)
					}
				}
			}
			return k
		}
		if err := e.RunUntil(16); err != nil {
			t.Fatal(err)
		}
		if k := lingering("mid-run"); k < 4 {
			t.Errorf("%s: mid-run, %d finished flows linger in the lists, want one per list for each of the first two", mode.name, k)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if k := lingering("after the run"); k == 0 {
			t.Errorf("%s: no finished flow lingers after the run", mode.name)
		}
		if hooks != 8 || seen != 8 {
			t.Errorf("%s: %d hooks told, and the batch's wait ended with %d flows seen finished: want 8 and 8", mode.name, hooks, seen)
		}
	}
}
