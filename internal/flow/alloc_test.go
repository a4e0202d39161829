package flow

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pfsim/internal/sim"
)

// steadyInput is one input of TestSolverSteadyStateAllocs: a net whose
// flows never drain within the test (or, for drainingCapped, drain one
// per step), and the capacity phases its links cycle through. Each step installs the next phase, link j taking
// phase[j%len(phase)], and runs the engine step seconds on; a measured
// cycle runs every phase once, so a branch that only one phase takes
// still runs on every cycle.
type steadyInput struct {
	name string
	mode solverMode
	// build creates the input's links on n, admits its flows and returns
	// the links.
	build  func(n *Net) []*Link
	phases [][]CapacityModel
	// step is the virtual time a cycle advances: 0 re-solves within one
	// instant, a positive step settles accrual at every change.
	step float64
	// drains is the number of flows that retire per cycle.
	drains int
	// resumes is set when every steady solve resumes from its component's
	// last one.
	resumes bool
}

// pairLinks builds nLinks disjoint single-link components, each with two
// long-running flows admitted in descending cap order, so the first solve
// sorts its capped flows and every solve fixes one at its cap and the
// other through the flow index.
func pairLinks(nLinks int) func(n *Net) []*Link {
	return func(n *Net) []*Link {
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = n.NewLink(fmt.Sprintf("l%d", i), Const(100))
			n.Start(fmt.Sprintf("f%d", i), 1e12, 80, links[i])
			n.Start(fmt.Sprintf("g%d", i), 1e12, 30, links[i])
		}
		return links
	}
}

// meshLinks builds one component of 24 links of five capacities, crossed
// by 60 flows of two or three links each, every third flow capped. Its
// solves run many rounds over links whose shares tie, cross and leave
// the share heap from the middle and the end.
func meshLinks(n *Net) []*Link {
	links := make([]*Link, 24)
	for i := range links {
		links[i] = n.NewLink(fmt.Sprintf("m%d", i), Const(float64(40+15*(i%5))))
	}
	for j := 0; j < 60; j++ {
		path := []*Link{links[j%24], links[(5*j+7)%24]}
		if j%4 == 0 {
			path = append(path, links[(11*j+3)%24])
		}
		maxRate := 0.0
		if j%3 == 0 {
			maxRate = float64(3 + (7*j)%11)
		}
		n.Start(fmt.Sprintf("m%d", j), 1e12, maxRate, path...)
	}
	return links
}

// cappedTriples builds four single-link components of three capped flows
// and one uncapped, the caps admitted out of (cap, admission) order so
// the reference solver's insertion sort moves every batch.
func cappedTriples(n *Net) []*Link {
	links := make([]*Link, 4)
	for i := range links {
		links[i] = n.NewLink(fmt.Sprintf("t%d", i), Const(100))
		for k, maxRate := range []float64{20, 5, 12, 0} {
			n.Start(fmt.Sprintf("t%d.%d", i, k), 1e12, maxRate, links[i])
		}
	}
	return links
}

// drainingCapped builds one link crossed by an uncapped flow that never
// drains and 128 capped flows at caps 1 to 5 MB/s admitted out of cap
// order, flow i sized to drain at t = i+0.5. Each one-second step retires
// one capped flow, so the component is re-solved from the capped order
// it keeps, with one member fewer, every step.
func drainingCapped(n *Net) []*Link {
	l := n.NewLink("d", Const(1000))
	n.Start("bulk", 1e12, 0, l)
	for i := 0; i < 128; i++ {
		maxRate := float64(1 + (7*i)%5)
		n.Start(fmt.Sprintf("d%d", i), maxRate*(float64(i)+0.5), maxRate, l)
	}
	return []*Link{l}
}

// resumingCapped is drainingCapped behind a tighter link: two uncapped
// flows cross a 10 MB/s link and the drained one, so every solve fixes
// the capped flows at their caps under the 10 MB/s link's 5 MB/s share,
// then that link's flows, and only then saturates the drained link. A
// retirement from the drained link perturbs it alone, so each re-solve
// replays the first two rounds and runs the last.
func resumingCapped(n *Net) []*Link {
	links := drainingCapped(n)
	tight := n.NewLink("tight", Const(10))
	for i := range 2 {
		n.Start(fmt.Sprintf("tight%d", i), 1e12, 0, tight, links[0])
	}
	return append(links, tight)
}

// stallLinks is pairLinks(4) plus a link carrying one flow, so a
// thrashing phase sees both a lone stream and a contended one.
func stallLinks(n *Net) []*Link {
	links := pairLinks(4)(n)
	lone := n.NewLink("lone", Const(100))
	n.Start("lone", 1e12, 0, lone)
	return append(links, lone)
}

var steadyInputs = []steadyInput{
	{
		name:   "scan",
		mode:   defaultMode,
		build:  pairLinks(4),
		phases: [][]CapacityModel{{Const(100)}, {Const(60)}},
	},
	{
		// Scanning only: live links left with no unfixed flow, and
		// candidates a later, lower share rejects.
		name:  "mesh-scan",
		mode:  scanOnlyMode,
		build: meshLinks,
		phases: [][]CapacityModel{
			{Const(100), Const(40), Const(70)},
			{Const(55), Thrash{Base: 90, Gamma: 0.2}, Const(40), Const(85)},
		},
	},
	{
		// The link-share heap from the first round: build, re-key, sift
		// both ways and walk the saturated set.
		name:  "share-heap",
		mode:  heapMode,
		build: meshLinks,
		phases: [][]CapacityModel{
			{Const(100), Const(40), Const(70)},
			{Const(55), Thrash{Base: 90, Gamma: 0.2}, Const(40), Const(85)},
		},
	},
	{
		// The oracle, for its insertion sort of capped flows, and its
		// scan for the next completion, which finds none while every
		// flow stalls.
		name:   "reference",
		mode:   refMode,
		build:  cappedTriples,
		phases: [][]CapacityModel{{Const(100)}, {Const(30)}, {Const(0)}},
	},
	{
		// Virtual time passes between changes, so every rate change
		// settles accrual. One phase moves only the first link's flows
		// (their completion keys are fixed in place), one stalls every
		// flow (the completion event is cancelled) and one leaves them a
		// trickle too slow to finish (rates change, completion keys stay
		// at +Inf).
		name:  "shifting",
		mode:  defaultMode,
		build: stallLinks,
		phases: [][]CapacityModel{
			{Const(100)},
			{Thrash{Base: 100, Gamma: 0.5}, Const(100), Const(100), Const(100), Thrash{Base: 100, Gamma: 0.5}},
			{Const(0)},
			{Const(1e-13)},
		},
		step: 1,
	},
	{
		// A capped component that loses a flow every step: the solve
		// filters the retired flow out of the kept capped order.
		name:   "draining",
		mode:   defaultMode,
		build:  drainingCapped,
		phases: [][]CapacityModel{{Const(1000)}},
		step:   1,
		drains: 1,
	},
	{
		// Departures only: a retirement perturbs the drained link, and the
		// phase reinstalls the models it has, so every solve replays the
		// rounds before that link's saturation and runs the rest.
		name:    "resuming",
		mode:    defaultMode,
		build:   resumingCapped,
		phases:  [][]CapacityModel{{Const(1000), Const(10)}},
		step:    1,
		drains:  1,
		resumes: true,
	},
}

// TestSolverSteadyStateAllocs pins the hot-path discipline end to end:
// after warm-up, model-shift -> flush -> re-solve -> commit -> reschedule
// cycles must not touch the heap allocator at all, whichever search the
// solve runs. No capped flow joins a component in a steady cycle, so no
// solve sorts one either.
func TestSolverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, in := range steadyInputs {
		eng := sim.NewEngine()
		n := NewNet(eng)
		n.UseReferenceSolver(in.mode.reference)
		n.heapRounds, n.heapLinks = in.mode.heapRounds, in.mode.heapLinks
		links := in.build(n)
		cycle := 0
		shift := func() {
			phase := in.phases[cycle%len(in.phases)]
			cycle++
			for j, l := range links {
				l.SetModel(phase[j%len(phase)])
			}
		}
		period := func() {
			for range in.phases {
				eng.Schedule(in.step, shift)
				if err := eng.RunUntil(eng.Now() + in.step); err != nil {
					panic(err)
				}
			}
		}
		for i := 0; i < 16; i++ {
			period()
		}
		before, active := n.Stats(), n.ActiveFlows()
		allocs := testing.AllocsPerRun(100, period)
		// AllocsPerRun runs one warm-up cycle and the 100 it measures.
		if got, want := active-n.ActiveFlows(), 101*in.drains; got != want {
			t.Errorf("%s: %d flows retired over 101 cycles, want %d", in.name, got, want)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state solve allocated %.1f allocs/op, want 0", in.name, allocs)
		}
		if sorted := n.Stats().CappedSorted - before.CappedSorted; sorted != 0 {
			t.Errorf("%s: steady-state solves put %d capped flows through a sort, want 0", in.name, sorted)
		}
		if in.mode.heapRounds == 0 && !in.mode.reference && n.Stats().ShareHeapOps == before.ShareHeapOps {
			t.Errorf("%s: no share-heap operations", in.name)
		}
		s := n.Stats()
		if solved, resumed := s.ComponentsSolved-before.ComponentsSolved, s.ResumedSolves-before.ResumedSolves; in.resumes && (resumed != solved || s.Rounds == before.Rounds) {
			t.Errorf("%s: %d of %d steady solves resumed, running %d rounds: want every one, and rounds run",
				in.name, resumed, solved, s.Rounds-before.Rounds)
		}
	}
}

// TestRetirementKeepsConnectedComponentAllocs: a retirement that leaves
// its component connected keeps the survivors in the component they
// share, so the retire -> re-solve -> commit cycle allocates nothing.
// Each of the flows crosses a private link and one shared link at its
// 1 MB/s cap, flow i finishing at t = i+1, so every step of one second
// retires exactly one flow and leaves the rest joined through the shared
// link.
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

// bridgeCycleAllocs returns the allocations of one cycle on two groups of
// group long-running flows, one group on each of two links: a 1 MB flow
// admitted across both links when bridge is set, else on the first link
// alone, run until it drains. The first bridge merges the groups'
// components, and the merged component outlives it and every later
// bridge. The measured cycles start once the component's flow list and
// the solver's scratch have reached their steady size.
func bridgeCycleAllocs(group int, bridge bool) float64 {
	eng := sim.NewEngine()
	n := NewNet(eng)
	a, b := n.NewLink("a", Const(1000)), n.NewLink("b", Const(1000))
	for i := 0; i < group; i++ {
		n.Start(fmt.Sprintf("a%d", i), 1e12, 0, a)
		n.Start(fmt.Sprintf("b%d", i), 1e12, 0, b)
	}
	path, want := []*Link{a}, 2
	if bridge {
		path, want = append(path, b), 1
	}
	cycle := func() {
		n.StartBatch([]FlowSpec{{Name: "bridge", SizeMB: 1, Path: path}})
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			panic(err)
		}
		if n.Components() != want {
			panic(fmt.Sprintf("%d components after a cycle, want %d", n.Components(), want))
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	return testing.AllocsPerRun(100, cycle)
}

// TestBridgeCycleAllocs: once a bridge has merged two groups, a bridge
// cycle allocates only the bridge's admission — its record, its batch and
// the batch's wait — and nothing that grows with the groups: its
// retirement splits nothing, and a later bridge finds both links in one
// component and merges nothing. A cycle allocates as often at 2 flows per
// group as at 32, and as often as a cycle whose flow crosses one group's
// link alone.
func TestBridgeCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lone := bridgeCycleAllocs(2, false)
	small, large := bridgeCycleAllocs(2, true), bridgeCycleAllocs(32, true)
	t.Logf("a cycle allocates %v times at 2 flows per group, %v at 32, and %v for a flow on one link", small, large, lone)
	if small != lone || large != lone {
		t.Errorf("a bridge cycle allocates %v times at 2 flows per group and %v at 32, want %v, as a flow on one link does",
			small, large, lone)
	}
}

// TestSolveScratchHoldsNoPointers: the scratch a component solve's rounds
// write — its links' slot state, the live list, the candidates, the flow
// index, the touched list, the link-share heap and the replay's sort of
// flows by round — holds no pointer, so
// appending, compacting or sifting an entry pays no GC write barrier. Each
// one's element type is walked through arrays and struct fields, and a
// pointer, interface, func, map, slice, string, channel or unsafe pointer
// anywhere in it fails.
func TestSolveScratchHoldsNoPointers(t *testing.T) {
	for _, field := range []string{"slots", "live", "cand", "idx", "touched", "shares.at", "shares.pos", "byRound"} {
		typ := reflect.TypeOf(solveCtx{})
		for _, name := range strings.Split(field, ".") {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("solveCtx has no field %s", field)
			}
			typ = f.Type
		}
		if typ.Kind() != reflect.Slice {
			t.Errorf("solveCtx.%s is not a slice", field)
			continue
		}
		if p := pointerIn(typ.Elem()); p != "" {
			t.Errorf("solveCtx.%s's entries hold a pointer: %s", field, p)
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

// drainRun is a run in which a flow of 0.2 MB at its 1 MB/s cap,
// admitted at t = 0.1, drains at 0.1 + 0.2 = 0.30000000000000004: the
// elapsed 0.20000000000000004 s at 1 MB/s rounds past the flow's volume.
// An event scheduled with the admission runs at that instant, ahead of
// the completion event; its callbacks are bound once.
type drainRun struct {
	eng          *sim.Engine
	net          *Net
	link         *Link
	carried      float64
	admit, event func()
}

func newDrainRun(read bool) *drainRun {
	d := &drainRun{}
	d.admit = func() {
		d.eng.Schedule(0.2, d.event)
		d.net.Start("f", 0.2, 1, d.link)
	}
	d.event = func() {}
	if read {
		d.event = func() { d.carried = d.link.Carried() }
	}
	return d
}

func (d *drainRun) run() {
	d.eng = sim.NewEngine()
	d.net = NewNet(d.eng)
	d.link = d.net.NewLink("l", Const(10))
	d.eng.Schedule(0.1, d.admit)
	if err := d.eng.Run(); err != nil {
		panic(err)
	}
}

// TestDrainInstantReadAllocs: a telemetry read at the instant a flow
// drains, ahead of its completion event, settles the flow there, its
// accrual clamped to the volume left, and allocates nothing more than
// any other event at that instant.
func TestDrainInstantReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	quiet, read := newDrainRun(false), newDrainRun(true)
	if extra := testing.AllocsPerRun(10, read.run) - testing.AllocsPerRun(10, quiet.run); extra != 0 {
		t.Errorf("a read at the drain instant allocated %v more times than an idle event, want 0", extra)
	}
	if read.carried != 0.2 {
		t.Errorf("carried %v MB at the drain instant, want 0.2", read.carried)
	}
}

// countingObserver counts lifecycle callbacks without allocating.
type countingObserver struct{ started, finished int }

func (o *countingObserver) FlowStarted(*Flow)  { o.started++ }
func (o *countingObserver) FlowFinished(*Flow) { o.finished++ }

// batchAllocs returns the heap allocations of one StartBatch of flows
// flows, run to completion on a warmed, observed net: each flow crosses
// one of eight OST links and the shared backbone, at one of two caps,
// with one of eight sizes, so the batch fills a component, re-solves it
// as flows drain in eight waves and retires it.
func batchAllocs(mode solverMode, flows int) float64 {
	eng := sim.NewEngine()
	n := NewNet(eng)
	n.UseReferenceSolver(mode.reference)
	obs := &countingObserver{}
	n.Observe(obs)
	backbone := n.NewLink("backbone", Const(800))
	osts := make([]*Link, 8)
	for i := range osts {
		osts[i] = n.NewLink(fmt.Sprintf("ost%d", i), Thrash{Base: 120, Gamma: 0.05})
	}
	specs := make([]FlowSpec, flows)
	for i := range specs {
		specs[i] = FlowSpec{
			Name:    fmt.Sprintf("w%d", i),
			SizeMB:  float64(1 + i%8),
			MaxRate: float64(5 + 5*(i%2)),
			Path:    []*Link{osts[i%8], backbone},
		}
	}
	batch := func() {
		n.StartBatch(specs)
		if err := eng.Run(); err != nil {
			panic(err)
		}
		if n.ActiveFlows() != 0 || obs.finished != obs.started {
			panic("batch did not drain")
		}
	}
	batch() // grows the net's scratch to the batch's size
	return testing.AllocsPerRun(3, batch)
}

// TestAdmissionAllocsPerFlow: admitting a flow allocates its record and
// nothing else grows with the batch: its solves, completions and
// retirement reuse the net's scratch, and the batch's record and wait and
// its component's lists are per batch. One more allocation
// per admitted flow (a signal, a counter or a closure in admit, attach or
// the completion path) adds 1 to the slope, which the bound, half an
// allocation, does not allow.
func TestAdmissionAllocsPerFlow(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, mode := range []solverMode{defaultMode, refMode} {
		small, large := batchAllocs(mode, 64), batchAllocs(mode, 256)
		perFlow := (large - small) / (256 - 64)
		t.Logf("%s: a batch allocates %v times at 64 flows, %v at 256: %.3f per added flow", mode.name, small, large, perFlow)
		if want := 1.0; perFlow < want || perFlow >= want+0.5 {
			t.Errorf("%s: %.3f allocations per admitted flow, want %v (its record) and less than %v more",
				mode.name, perFlow, want, 0.5)
		}
	}
}

// TestRecordSizes: the solve's records ride in the per-flow and per-link
// records without growing them. A flow fills its 176-byte size class, so
// one more field would cost 16 bytes per flow; a link is 104 bytes, the
// cost of each entry of a NewLinks slab.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Flow{}); got > 176 {
		t.Errorf("a Flow is %d bytes, want at most 176", got)
	}
	if got := unsafe.Sizeof(Link{}); got > 104 {
		t.Errorf("a Link is %d bytes, want at most 104", got)
	}
}

// retainedRoom records the capacity of every slice of v, a struct, by
// field path, walking nested structs.
func retainedRoom(prefix string, v reflect.Value, room map[string]int) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Slice:
			room[name] = f.Cap()
		case reflect.Struct:
			retainedRoom(name+".", f, room)
		}
	}
}

// TestRetainedSolverStateBounded: the room a net keeps does not grow with
// the work it does. A departure-heavy schedule runs for 2 and for 4
// periods: a period is 40 bursts of 48 flows over eight thrashing links
// of distinct capacities, which saturate in distinct rounds, and a shared
// one. Each burst is a component that drains one flow at a time, so most
// solves resume, and that dies before the next burst. Every
// slice of the solve scratch, the replay's included, the component
// registry, the work queue, the completion heap, the staged re-keys and
// the completion and solve scratch keep the same capacity after both.
// The registry compacts its dead entries within the first period.
func TestRetainedSolverStateBounded(t *testing.T) {
	for _, mode := range []solverMode{defaultMode, heapMode, refMode} {
		room := func(periods int) map[string]int {
			e := sim.NewEngine()
			n := NewNet(e)
			n.UseReferenceSolver(mode.reference)
			n.heapRounds, n.heapLinks = mode.heapRounds, mode.heapLinks
			backbone := n.NewLink("backbone", Const(1e4))
			osts := n.NewLinks("ost", 8, nil)
			for k, l := range osts {
				l.SetModel(Thrash{Base: float64(40 + 20*k), Gamma: 0.05})
			}
			specs := make([]FlowSpec, 48)
			for i := range specs {
				specs[i] = FlowSpec{Name: "w", SizeMB: float64(1 + i), Path: []*Link{osts[i%8], backbone}}
				if i%6 == 0 {
					specs[i].MaxRate = 3
				}
			}
			for i := range 40 * periods {
				e.Schedule(float64(100*i), func() { n.StartBatch(specs) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if s := n.Stats(); !mode.reference && s.ResumedSolves*2 < s.ComponentsSolved {
				t.Errorf("%s: %d of %d solves resumed, want most", mode.name, s.ResumedSolves, s.ComponentsSolved)
			}
			room := map[string]int{
				"comps":         cap(n.comps),
				"work":          cap(n.work),
				"completions":   cap(n.completions),
				"dueChanged":    cap(n.dueChanged),
				"doneScratch":   cap(n.doneScratch),
				"solvedScratch": cap(n.solvedScratch),
			}
			retainedRoom("ctx.", reflect.ValueOf(n.ctx), room)
			return room
		}
		two, four := room(2), room(4)
		t.Logf("%s: room after 2 periods %v", mode.name, two)
		if !reflect.DeepEqual(two, four) {
			t.Errorf("%s: the net keeps room for %v after 2 periods and %v after 4", mode.name, two, four)
		}
	}
}
