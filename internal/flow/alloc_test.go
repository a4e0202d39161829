package flow

import (
	"fmt"
	"testing"

	"pfsim/internal/sim"
)

// allocNet builds a warmed net: nLinks disjoint single-link components,
// two long-running flows each (sizes far beyond the test horizon, so the
// steady state is pure re-solve/commit/reschedule with no completions),
// plus enough model toggles to grow every scratch slice and the event
// pool to their steady capacity. Each link's caps are admitted in
// descending order, so every solve sorts its capped flows, fixes one at
// its cap and the other through the flow index.
func allocNet(nLinks int) (*sim.Engine, *Net, []*Link) {
	eng := sim.NewEngine()
	n := NewNet(eng)
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = n.NewLink("l"+string(rune('a'+i)), Const(100))
	}
	for i, l := range links {
		n.Start("f"+string(rune('a'+i)), 1e12, 80, l)
		n.Start("g"+string(rune('a'+i)), 1e12, 30, l)
	}
	fast, slow := CapacityModel(Const(100)), CapacityModel(Const(60))
	for i := 0; i < 16; i++ {
		m := fast
		if i%2 == 0 {
			m = slow
		}
		for _, l := range links {
			l.SetModel(m)
		}
		if err := eng.RunUntil(eng.Now()); err != nil {
			panic(err)
		}
	}
	return eng, n, links
}

// TestSolverSteadyStateAllocs pins the hot-path discipline end to end:
// after warm-up, a model-shift -> flush -> re-solve -> commit ->
// reschedule cycle must not touch the heap allocator at all. This is the
// runtime counterpart of the hotalloc lint, and the ground truth for the
// constructs the lint cannot see, such as a local moved to the heap.
func TestSolverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eng, _, links := allocNet(4)
	fast, slow := CapacityModel(Const(100)), CapacityModel(Const(60))
	cur := fast
	allocs := testing.AllocsPerRun(200, func() {
		if cur == fast {
			cur = slow
		} else {
			cur = fast
		}
		for _, l := range links {
			l.SetModel(cur)
		}
		if err := eng.RunUntil(eng.Now()); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state solve allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestRetirementKeepsConnectedComponentAllocs: a retirement that leaves
// its component connected re-lists the survivors in the component it
// already has, so the retire -> rebuild -> re-solve -> commit cycle
// allocates nothing. Each of the flows crosses a private link and one
// shared link at its 1 MB/s cap, flow i finishing at t = i+1, so every
// step of one second retires exactly one flow and leaves the rest joined
// through the shared link.
func TestRetirementKeepsConnectedComponentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, flows := range []int{4, 64} {
		eng := sim.NewEngine()
		n := NewNet(eng)
		shared := n.NewLink("shared", Const(1e6))
		for i := 0; i < flows; i++ {
			own := n.NewLink(fmt.Sprintf("own%d", i), Const(1e6))
			n.Start(fmt.Sprintf("f%d", i), float64(i+1), 1, own, shared)
		}
		if err := eng.RunUntil(0.5); err != nil {
			t.Fatal(err)
		}
		step := 0
		// The warm-up run and flows-3 measured runs retire all but two
		// flows.
		allocs := testing.AllocsPerRun(flows-3, func() {
			step++
			if err := eng.RunUntil(float64(step) + 0.5); err != nil {
				panic(err)
			}
		})
		if got, want := n.ActiveFlows(), 2; got != want {
			t.Fatalf("%d flows: %d active after the steps, want %d", flows, got, want)
		}
		if n.Components() != 1 {
			t.Fatalf("%d flows: %d components, want 1", flows, n.Components())
		}
		if allocs != 0 {
			t.Errorf("%d flows: a retirement leaving the component connected allocated %.1f times, want 0", flows, allocs)
		}
	}
}
