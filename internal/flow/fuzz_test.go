package flow

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// fuzzBytes doles out a fuzz input one byte at a time, yielding zero once
// the input is spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// intn returns a value in [0, n) for n <= 256.
func (b *fuzzBytes) intn(n int) int { return b.next() % n }

// unit returns a value in [0, 1] with 16 bits of resolution.
func (b *fuzzBytes) unit() float64 {
	return float64(b.next()<<8|b.next()) / 0xffff
}

// decodeSolverInput turns fuzz bytes into a topology and a schedule in
// the shapes randomSchedule draws: 1–48 links of 1–1000 MB/s, a quarter of
// them thrashing, then ops — single starts, batches of 2–25 flows, eager
// and lazy capacity changes, and starts chained on the completion of an
// earlier op's whole batch — until the input or a budget of 64 ops or 160
// flows runs out. The budget keeps one input's reference replay, which
// re-solves the whole network on every admission, to a fraction of a
// second. Flows cross 1–3 distinct links or none (a path-less capped
// flow); sizes include zero and caps are optional.
func decodeSolverInput(data []byte) ([]linkTmpl, []solverOp) {
	in := fuzzBytes(data)
	topo := make([]linkTmpl, 1+in.intn(48))
	for i := range topo {
		topo[i].mbs = 1 + 999*in.unit()
		if g := in.next(); g%4 == 3 {
			topo[i].gamma = 0.01 + float64(g/4)/64*0.2
		}
	}
	spec := func(name string) specTmpl {
		sp := specTmpl{name: name}
		if in.intn(10) == 0 {
			sp.size = 1 + 499*in.unit()
			sp.maxRate = 1 + 99*in.unit()
			return sp
		}
		seen := map[int]bool{}
		for want := 1 + in.intn(3); len(sp.path) < want && len(sp.path) < len(topo); {
			k := in.intn(len(topo))
			for seen[k] {
				k = (k + 1) % len(topo)
			}
			seen[k] = true
			sp.path = append(sp.path, k)
		}
		if in.intn(8) > 0 {
			sp.size = 1 + 1999*in.unit()
		}
		if in.intn(3) == 0 {
			sp.maxRate = 1 + 99*in.unit()
		}
		return sp
	}
	var ops []solverOp
	var starters []int
	at, flows := 0.0, 0
	for i := 0; len(in) > 0 && i < 64 && flows < 160; i++ {
		if dt := in.next(); dt%3 > 0 {
			at += float64(dt) / 255 * 3
		}
		switch r := in.intn(10); {
		case r == 0 && i > 0:
			kind := opCap
			if in.intn(2) == 0 {
				kind = opCapLazy
			}
			ops = append(ops, solverOp{at: at, kind: kind, link: in.intn(len(topo)), mbs: 1 + 999*in.unit()})
		case r == 1 && len(starters) > 0:
			target := starters[in.intn(len(starters))]
			ops = append(ops, solverOp{kind: opChain, specs: []specTmpl{spec(fmt.Sprintf("c%d", i))}, target: target})
			flows++
		case r <= 4:
			specs := make([]specTmpl, 2+in.intn(24))
			flows += len(specs)
			for j := range specs {
				specs[j] = spec(fmt.Sprintf("b%d_%d", i, j))
			}
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{at: at, kind: opBatch, specs: specs})
		default:
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{at: at, kind: opStart, specs: []specTmpl{spec(fmt.Sprintf("f%d", i))}})
			flows++
		}
	}
	return topo, ops
}

// FuzzSolver replays decoded topologies and schedules through the
// reference solver and the incremental solver's three search strategies
// (the shipped scan-to-heap switch, scanning only, and the link-share heap
// from the first round). Start times, finish times and carried volumes
// must be bit-identical, and CheckInvariants and CheckMaxMin must hold
// inside every op event and after every flush (matchesReference). Seeds
// live in testdata/fuzz/FuzzSolver. many-rounds is a 48-link topology
// whose flows settle at distinct share levels, so its solves outlast the
// switch rule and the default strategy finishes them from the heap. In
// capped-merge-split, two groups of capped flows admitted out of cap
// order merge through a capped bridge that then drains, a flow capped
// below the kept caps joins one, and every capped flow finishes: each way
// a component's kept capped order changes. In re-merge, a bridge joins two
// groups and drains, then in one instant a flow capped below the kept caps
// joins one group and a second bridge joins them again, so the merged
// component that outlived the first bridge meets the second with its
// capped order stale.
// In batch-chain, a flow is chained on a batch of three whose flows drain
// at distinct instants, so the chain runs only when the last of them
// does. The resume-* seeds pin the cases of a solve that resumes from its
// component's last one: a capped flow alone in its capped round departs
// (resume-capped-alone), a capacity falls (resume-capacity-drop) or rises
// (resume-capacity-rise) between departures, and two flows depart at one
// instant (resume-two-departures).
func FuzzSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, ops := decodeSolverInput(data)
		matchesReference(t, ops, topo)
	})
}

// seedInput decodes the FuzzSolver seed file name.
func seedInput(t *testing.T, name string) ([]linkTmpl, []solverOp) {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzSolver/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("unexpected seed file format: %q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return decodeSolverInput([]byte(data))
}

// TestFuzzSolverManyRoundsSeed keeps the many-rounds seed doing its job:
// its solves average at least 10 rounds, executed or replayed, and under
// the shipped switch rule some outlast the scan rounds and finish from the
// link-share heap.
func TestFuzzSolverManyRoundsSeed(t *testing.T) {
	topo, ops := seedInput(t, "many-rounds")
	s := matchesReference(t, ops, topo)[0].Stats()
	if s.ShareHeapOps == 0 || s.Rounds+s.ReplayedRounds < 10*s.ComponentsSolved {
		t.Errorf("many-rounds seed averages under 10 rounds per solve or never reaches the heap: %+v", s)
	}
}

// TestFuzzSolverBatchChainSeed keeps the batch-chain seed doing its job:
// its chain waits on a batch of three flows that drain at three distinct
// instants, and starts its flow at the last of them, so the fuzzer
// replays a batch wait that ends mid-schedule in every solver mode.
func TestFuzzSolverBatchChainSeed(t *testing.T) {
	topo, ops := seedInput(t, "batch-chain")
	matchesReference(t, ops, topo)
	flows, _, _ := replay(t, ops, topo, refMode)
	ends := map[float64]bool{}
	last, chained := 0.0, -1.0
	for _, f := range flows {
		switch {
		case strings.HasPrefix(f.Name(), "b0_"):
			ends[f.FinishedAt()] = true
			last = max(last, f.FinishedAt())
		case f.Name() == "c1":
			chained = f.Started()
		}
	}
	if len(ends) != 3 || chained != last {
		t.Errorf("batch b0 drains at %d distinct instants, last %v; its chain starts at %v: want 3, and the chain at the last",
			len(ends), last, chained)
	}
}

// TestFuzzSolverReMergeSeed keeps the re-merge seed doing its job: f0 runs
// on link l0, f1 and f2 on l2 and l3, and while all three run, the bridge
// f3 joins l0 to l2 and drains, then in one instant f4 joins l0 capped
// below f1's cap, the last of the kept capped order, and the bridge f5
// joins l0 to l2 again before a solve re-sorts the order.
func TestFuzzSolverReMergeSeed(t *testing.T) {
	topo, ops := seedInput(t, "re-merge")
	matchesReference(t, ops, topo)
	flows, links, _ := replay(t, ops, topo, defaultMode)
	if len(flows) != 6 {
		t.Fatalf("re-merge seed admits %d flows, want 6", len(flows))
	}
	f0, f1, f2, bridge, low, again := flows[0], flows[1], flows[2], flows[3], flows[4], flows[5]
	onLinks := func(f *Flow, want ...int) bool {
		if len(f.path) != len(want) {
			return false
		}
		for i, k := range want {
			if f.path[i] != links[k] {
				return false
			}
		}
		return true
	}
	if !onLinks(f0, 0) || !onLinks(f1, 2) || !onLinks(f2, 3, 2) || !onLinks(low, 0) ||
		!onLinks(bridge, 0, 2) || !onLinks(again, 2, 0) {
		t.Error("re-merge seed's paths do not keep l0's group apart from l2's but for the two bridges")
	}
	end := min(f0.FinishedAt(), f1.FinishedAt(), f2.FinishedAt())
	if !(bridge.FinishedAt() < low.Started() && low.Started() == again.Started() && again.FinishedAt() < end) {
		t.Errorf("re-merge seed: bridge drains at %v, the low cap joins at %v, the second bridge runs %v to %v, the groups run until %v: want them in that order, the low cap and the second bridge at one instant",
			bridge.FinishedAt(), low.Started(), again.Started(), again.FinishedAt(), end)
	}
	if !(0 < low.maxRate && low.maxRate < f1.maxRate && f0.maxRate < f1.maxRate) {
		t.Errorf("re-merge seed: caps %v, %v and %v, want the late one below the last kept, %v",
			f0.maxRate, f1.maxRate, low.maxRate, f1.maxRate)
	}
}

// solveStep is one event of a default-mode replay that solved components:
// its instant, the component solves it made and how many of them resumed
// from their component's last solve.
type solveStep struct {
	at              float64
	solved, resumed int64
}

// solveSteps replays a schedule in the default mode and lists its events
// that solved components, in order.
func solveSteps(t *testing.T, ops []solverOp, topo []linkTmpl) []solveStep {
	t.Helper()
	_, _, n := schedule(t, ops, topo, defaultMode)
	var steps []solveStep
	last := n.Stats()
	n.eng.SetPoll(1, func() {
		s := n.Stats()
		if d := s.ComponentsSolved - last.ComponentsSolved; d > 0 {
			steps = append(steps, solveStep{n.eng.Now(), d, s.ResumedSolves - last.ResumedSolves})
		}
		last = s
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return steps
}

// stepAt returns the solving event of steps at instant at, if any: the
// last departure of a component solves nothing.
func stepAt(steps []solveStep, at float64) (solveStep, bool) {
	for _, s := range steps {
		if s.at == at {
			return s, true
		}
	}
	return solveStep{}, false
}

// TestFuzzSolverResumeCappedAloneSeed keeps the resume-capped-alone seed
// doing its job. Three bridges cross a 15 MB/s link l0 and a 100 MB/s
// link l1, and four flows cross l1: b0_3 and b0_4, capped below l0's share
// and admitted in descending cap order, b0_5, capped as the bridge b0_2
// is and drained first, and the uncapped b0_6. The first solve fixes
// b0_4 and b0_3 in one capped round, then the bridges at l0's share, then
// b0_5 alone in its capped round. The solve at b0_5's departure resumes,
// replaying the capped round, and l1's residual then sets b0_6's rate, so
// a replay that fixed that round in admission order moves its last bits.
func TestFuzzSolverResumeCappedAloneSeed(t *testing.T) {
	topo, ops := seedInput(t, "resume-capped-alone")
	matchesReference(t, ops, topo)
	flows, _, _ := replay(t, ops, topo, defaultMode)
	if len(flows) != 7 {
		t.Fatalf("resume-capped-alone seed admits %d flows, want 7", len(flows))
	}
	bridge, high, low, alone := flows[2], flows[3], flows[4], flows[5]
	if !(0 < low.maxRate && low.maxRate < high.maxRate && high.maxRate < topo[0].mbs/3 &&
		alone.maxRate == bridge.maxRate && bridge.maxRate > topo[0].mbs/3) {
		t.Errorf("resume-capped-alone seed: caps %v, %v, %v and %v against l0's share %v: want the first two below it in descending order, the last two equal and above it",
			high.maxRate, low.maxRate, alone.maxRate, bridge.maxRate, topo[0].mbs/3)
	}
	for _, f := range flows {
		if f != alone && f.FinishedAt() <= alone.FinishedAt() {
			t.Errorf("resume-capped-alone seed: %s drains at %v, not after %s at %v", f.Name(), f.FinishedAt(), alone.Name(), alone.FinishedAt())
		}
	}
	if s, ok := stepAt(solveSteps(t, ops, topo), alone.FinishedAt()); !ok || s.resumed != s.solved {
		t.Errorf("resume-capped-alone seed: the solve at %s's departure does not resume: %+v", alone.Name(), s)
	}
}

// capacitySeed checks a seed of six flows over a 20 MB/s link l0 and a
// 200 MB/s link l1, joined by a bridge: a lazy capacity change of l1
// comes between departures, and the solves at departures resume, while
// the one at the change resumes exactly when the change raises l1.
func capacitySeed(t *testing.T, name string, rise bool) {
	topo, ops := seedInput(t, name)
	matchesReference(t, ops, topo)
	var change solverOp
	for _, op := range ops {
		if op.kind == opCapLazy {
			change = op
		}
	}
	if change.kind != opCapLazy || change.link != 1 || (change.mbs > topo[1].mbs) != rise {
		t.Fatalf("%s seed: capacity change %+v of l1 (%v MB/s), want a lazy one that rises: %v", name, change, topo[1].mbs, rise)
	}
	flows, _, _ := replay(t, ops, topo, defaultMode)
	steps := solveSteps(t, ops, topo)
	before, after := false, false
	for _, f := range flows {
		if s, ok := stepAt(steps, f.FinishedAt()); ok && s.resumed == s.solved {
			before = before || f.FinishedAt() < change.at
			after = after || f.FinishedAt() > change.at
		}
	}
	if !before || !after {
		t.Errorf("%s seed: a departure's solve resumes before the change at t=%v: %v, and after it: %v", name, change.at, before, after)
	}
	if s, ok := stepAt(steps, change.at); !ok || (s.resumed == s.solved) != rise {
		t.Errorf("%s seed: the solve at the change resumes: %v, want %v: %+v", name, s.resumed == s.solved, rise, s)
	}
}

// TestFuzzSolverResumeCapacityDropSeed keeps the resume-capacity-drop seed
// doing its job: l1 falls from 200 to 5 MB/s between two departures, so
// the solve at the drop runs from round 0, where a replay of the rounds
// before l1 last saturated would charge l1 more than it now has.
func TestFuzzSolverResumeCapacityDropSeed(t *testing.T) {
	capacitySeed(t, "resume-capacity-drop", false)
}

// TestFuzzSolverResumeCapacityRiseSeed keeps the resume-capacity-rise seed
// doing its job: l1 rises from 200 to 400 MB/s between two departures, and
// the solve at the rise resumes from the round l1 first saturated in.
func TestFuzzSolverResumeCapacityRiseSeed(t *testing.T) {
	capacitySeed(t, "resume-capacity-rise", true)
}

// TestFuzzSolverResumeTwoDeparturesSeed keeps the resume-two-departures
// seed doing its job: two equal flows on l1 drain at one instant, and the
// one solve there resumes from the earlier first saturation of their
// links.
func TestFuzzSolverResumeTwoDeparturesSeed(t *testing.T) {
	topo, ops := seedInput(t, "resume-two-departures")
	matchesReference(t, ops, topo)
	flows, _, _ := replay(t, ops, topo, defaultMode)
	at := map[float64]int{}
	for _, f := range flows {
		at[f.FinishedAt()]++
	}
	first := flows[len(flows)-1].FinishedAt()
	if at[first] != 2 {
		t.Fatalf("resume-two-departures seed: %d flows drain with %s at %v, want 2", at[first], flows[len(flows)-1].Name(), first)
	}
	if s, ok := stepAt(solveSteps(t, ops, topo), first); !ok || s.solved != 1 || s.resumed != 1 {
		t.Errorf("resume-two-departures seed: the solve at the two departures: %+v, want one that resumes", s)
	}
}
