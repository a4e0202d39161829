package flow

import (
	"fmt"
	"math"
	"testing"

	"pfsim/internal/sim"
)

// TestComponentLifecycle walks a component's life: disjoint admissions
// start one component each, a bridging admission merges them, and the
// merged component outlives the bridge, since components only merge, and
// dies with its last flow. At each step the net passes CheckInvariants
// and its flows' rates and finish times match, bit for bit, those of the
// same run in reference mode.
func TestComponentLifecycle(t *testing.T) {
	type run struct {
		eng          *sim.Engine
		net          *Net
		la, lb       *Link
		a, b, bridge *Flow
	}
	start := func(reference bool) *run {
		r := &run{eng: sim.NewEngine()}
		r.net = NewNet(r.eng)
		r.net.UseReferenceSolver(reference)
		r.la, r.lb = r.net.NewLink("la", Const(100)), r.net.NewLink("lb", Const(100))
		r.a = r.net.Start("a", 2000, 0, r.la)
		r.b = r.net.Start("b", 2500, 0, r.lb)
		return r
	}
	inc, ref := start(false), start(true)
	step := func(name string, components int) {
		t.Helper()
		for _, r := range []*run{inc, ref} {
			if err := r.net.CheckInvariants(); err != nil {
				t.Fatalf("%s (reference %v): %v", name, r.net.reference, err)
			}
			if got := r.net.Components(); got != components {
				t.Fatalf("%s (reference %v): %d components, want %d", name, r.net.reference, got, components)
			}
		}
		for _, fs := range [][2]*Flow{{inc.a, ref.a}, {inc.b, ref.b}, {inc.bridge, ref.bridge}} {
			f, w := fs[0], fs[1]
			if f == nil {
				continue
			}
			if math.Float64bits(f.Rate()) != math.Float64bits(w.Rate()) ||
				math.Float64bits(f.FinishedAt()) != math.Float64bits(w.FinishedAt()) {
				t.Errorf("%s: %s at rate %v finished at %v, reference %v and %v",
					name, f.Name(), f.Rate(), f.FinishedAt(), w.Rate(), w.FinishedAt())
			}
		}
	}
	runUntil := func(at float64) {
		for _, r := range []*run{inc, ref} {
			if err := r.eng.RunUntil(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("disjoint admissions", 2)
	for _, r := range []*run{inc, ref} {
		r.bridge = r.net.Start("bridge", 500, 0, r.la, r.lb)
	}
	step("bridge admitted", 1)
	if inc.a.comp != inc.bridge.comp || inc.b.comp != inc.bridge.comp {
		t.Fatal("the bridge did not merge the components")
	}
	// The bridge gets 50 MB/s on each link and drains at t=10; then a
	// drains at t=25 and b at t=30.
	runUntil(11)
	if !inc.bridge.Finished() {
		t.Fatal("bridge still running at t=11")
	}
	step("bridge retired", 1)
	if inc.a.comp != inc.b.comp {
		t.Error("the bridge's retirement split its component")
	}
	runUntil(26)
	step("a retired", 1)
	runUntil(math.Inf(1))
	step("drained", 0)
}

// TestSetModelMarksComponentDirty exercises the SetModel paths: with no
// manual Recompute the change takes effect through the coalesced zero-delay
// solve — re-solving only the touched component — and an explicit Recompute
// still forces an immediate full settle. Both solver modes agree.
func TestSetModelMarksComponentDirty(t *testing.T) {
	for _, reference := range []bool{false, true} {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(reference)
		la := n.NewLink("la", Const(100))
		lb := n.NewLink("lb", Const(100))
		f1 := n.Start("f1", 1000, 0, la)
		f2 := n.Start("f2", 1000, 0, lb)
		e.Schedule(5, func() {
			la.SetModel(Const(50)) // no Recompute: coalesced event applies it
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		// f1: 500 MB by t=5, the rest at 50 MB/s -> t=15. f2 untouched: t=10.
		if math.Abs(f1.FinishedAt()-15) > 1e-9 {
			t.Errorf("reference=%v: f1 finished at %v, want 15", reference, f1.FinishedAt())
		}
		if math.Abs(f2.FinishedAt()-10) > 1e-9 {
			t.Errorf("reference=%v: f2 finished at %v, want 10", reference, f2.FinishedAt())
		}
	}
}

// TestSetModelComponentIsolation counts component solves: a capacity
// change in one component must not re-solve (or settle) the other.
func TestSetModelComponentIsolation(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	la := n.NewLink("la", Const(100))
	lb := n.NewLink("lb", Const(100))
	n.Start("f1", 1000, 0, la)
	f2 := n.Start("f2", 1000, 0, lb)
	e.Schedule(5, func() { la.SetModel(Const(50)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Component solves: 2 at admission (one per component), 1 at the t=5
	// capacity change (la's component only), 0 at the two completion
	// instants (each drains its component). A leak of the t=5 change into
	// f2's component would show up as a third admission-era solve.
	st := n.Stats()
	if st.ComponentsSolved != 3 {
		t.Errorf("components solved = %d, want 3 (f2's component re-solved?)", st.ComponentsSolved)
	}
	// Settles: f1 re-rated at t=5, and each flow settles once at its
	// completion. f2 must never be settled by f1's capacity change.
	if st.FlowsSettled != 3 {
		t.Errorf("flows settled = %d, want 3", st.FlowsSettled)
	}
	if f2.FinishedAt() != 10 {
		t.Errorf("f2 finished at %v, want 10", f2.FinishedAt())
	}
}

// TestSetModelIdleLink: changing an idle link's model is free and applies
// when a flow later crosses it.
func TestSetModelIdleLink(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("idle", Const(100))
	l.SetModel(Const(25))
	f := n.Start("x", 100, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.FinishedAt()-4) > 1e-9 {
		t.Errorf("finished at %v, want 4 (new model)", f.FinishedAt())
	}
}

// TestSetModelThenRecompute: an explicit Recompute right after SetModel
// makes the new rates visible immediately, mid-instant.
func TestSetModelThenRecompute(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	f := n.Start("x", 1000, 0, l)
	n.Recompute()
	if f.Rate() != 100 {
		t.Fatalf("rate %v, want 100", f.Rate())
	}
	l.SetModel(Const(40))
	n.Recompute()
	if f.Rate() != 40 {
		t.Errorf("rate after SetModel+Recompute = %v, want 40", f.Rate())
	}
	e.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyAccrualAnchors verifies the accrual contract: flows in untouched
// components are not settled by foreign churn, while telemetry reads
// (Link.Carried, Flow.Remaining) observe exact mid-run values on demand.
func TestLazyAccrualAnchors(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	la := n.NewLink("la", Const(100))
	lb := n.NewLink("lb", Const(100))
	f1 := n.Start("steady", 10000, 0, la)
	// Churn in the other component: a completion every second.
	for i := 0; i < 8; i++ {
		fi := float64(i)
		e.Schedule(fi, func() { n.Start("churn", 100, 0, lb) })
	}
	e.Schedule(5.5, func() {
		if f1.settledAt != 0 {
			t.Errorf("steady flow settled at %v by foreign churn; anchor should still be 0", f1.settledAt)
		}
		if got := f1.Remaining(); math.Abs(got-(10000-550)) > 1e-6 {
			t.Errorf("Remaining() = %v, want 9450", got)
		}
		if got := la.Carried(); math.Abs(got-550) > 1e-6 {
			t.Errorf("Carried() = %v, want 550", got)
		}
		// The read itself settled the flow.
		if f1.settledAt != 5.5 {
			t.Errorf("telemetry read left anchor at %v, want 5.5", f1.settledAt)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := la.Carried(); math.Abs(got-10000) > 1e-6 {
		t.Errorf("final carried %v, want 10000", got)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedComponentCounters: K disjoint star file systems under one
// net. Every component solve must scan only its own shard's flows (~N per
// solve), never the whole population.
func TestShardedComponentCounters(t *testing.T) {
	const shards, flowsPer = 8, 16
	e := sim.NewEngine()
	n := NewNet(e)
	for s := 0; s < shards; s++ {
		bb := n.NewLink(fmt.Sprintf("bb%d", s), Const(500))
		specs := make([]FlowSpec, flowsPer)
		for i := range specs {
			nic := n.NewLink(fmt.Sprintf("nic%d_%d", s, i), Const(100))
			specs[i] = FlowSpec{Name: "f", SizeMB: float64(100 + 10*i + s), Path: []*Link{nic, bb}}
		}
		n.StartBatch(specs)
	}
	n.Recompute()
	if got := n.Components(); got != shards {
		t.Fatalf("%d components, want %d", got, shards)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	perSolve := float64(st.ComponentFlowsScanned) / float64(st.ComponentsSolved)
	if perSolve > flowsPer {
		t.Errorf("component solves scan %.1f flows on average; want <= shard size %d (population %d)",
			perSolve, flowsPer, shards*flowsPer)
	}
}
