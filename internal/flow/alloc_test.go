package flow

import (
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
// reschedule cycle must not touch the heap allocator at all. This is the runtime counterpart of the hotalloc lint and
// the pfsim-escape compiler cross-check.
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
