package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfsim/internal/sim"
)

// opKind discriminates the steps of a randomized schedule.
type opKind int

const (
	opStart   opKind = iota // start one flow
	opBatch                 // admit several flows via StartBatch
	opCap                   // change a link's capacity model (with an explicit Recompute)
	opCapLazy               // change a link's capacity model, letting the coalesced solve apply it
	opChain                 // start a flow at the instant an earlier op's whole batch completes
)

// specTmpl describes one flow over link indices, resolved per net at
// replay time. A zero size is an instantaneous flow; a zero maxRate means
// uncapped; an empty path with a positive maxRate is a path-less capped
// flow.
type specTmpl struct {
	path    []int
	size    float64
	maxRate float64
	name    string
}

// solverOp is one step of a randomized schedule, replayable on any net.
type solverOp struct {
	at     float64
	kind   opKind
	specs  []specTmpl // opStart/opChain: one entry; opBatch: all entries
	link   int        // opCap: target link
	mbs    float64    // opCap: new capacity
	target int        // opChain: index of the earlier flow-creating op to chain on
}

// randomSpec draws one flow description. Zero-duration flows and path-less
// capped flows appear with small probability so the heap path sees both.
func randomSpec(rng *rand.Rand, nLinks int, name string) specTmpl {
	if rng.Intn(10) == 0 { // path-less capped flow
		return specTmpl{size: 1 + rng.Float64()*500, maxRate: 1 + rng.Float64()*100, name: name}
	}
	pathLen := 1 + rng.Intn(3)
	seen := map[int]bool{}
	var path []int
	for len(path) < pathLen {
		k := rng.Intn(nLinks)
		if !seen[k] {
			seen[k] = true
			path = append(path, k)
		}
	}
	size := 1 + rng.Float64()*2000
	if rng.Intn(8) == 0 {
		size = 0 // zero-duration flow: completes at its admission instant
	}
	cap := 0.0
	if rng.Intn(3) == 0 {
		cap = 1 + rng.Float64()*100
	}
	return specTmpl{path: path, size: size, maxRate: cap, name: name}
}

// randomSchedule draws a churny schedule of single starts, batch
// admissions, capacity changes and completion-chained arrivals over
// nLinks links. Several ops share instants on purpose, to exercise
// same-instant coalescing; chained ops land exactly on completion
// instants, interleaving arrivals with completions.
func randomSchedule(rng *rand.Rand, nLinks int) []solverOp {
	var ops []solverOp
	var starters []int // op indices that create at least one flow
	at := 0.0
	nOps := 8 + rng.Intn(50)
	for i := 0; i < nOps; i++ {
		if rng.Intn(3) > 0 { // bursts: 1/3 of ops land on a fresh instant
			at += rng.Float64() * 3
		}
		switch r := rng.Intn(10); {
		case r == 0 && i > 0:
			kind := opCap
			if rng.Intn(2) == 0 {
				kind = opCapLazy
			}
			ops = append(ops, solverOp{
				at:   at,
				kind: kind,
				link: rng.Intn(nLinks),
				mbs:  5 + rng.Float64()*400,
			})
		case r == 1 && len(starters) > 0:
			ops = append(ops, solverOp{
				at:     at, // unused: the chain fires on completion
				kind:   opChain,
				specs:  []specTmpl{randomSpec(rng, nLinks, fmt.Sprintf("c%d", i))},
				target: starters[rng.Intn(len(starters))],
			})
		case r <= 4:
			width := 2 + rng.Intn(24)
			specs := make([]specTmpl, width)
			for j := range specs {
				specs[j] = randomSpec(rng, nLinks, fmt.Sprintf("b%d_%d", i, j))
			}
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{at: at, kind: opBatch, specs: specs})
		default:
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{
				at:    at,
				kind:  opStart,
				specs: []specTmpl{randomSpec(rng, nLinks, fmt.Sprintf("f%d", i))},
			})
		}
	}
	return ops
}

// linkTmpl is one link of a replayed topology: its capacity, and a
// per-stream degradation that makes it a Thrash link when positive.
type linkTmpl struct {
	mbs, gamma float64
}

// model is the link's capacity model at capacity mbs.
func (lt linkTmpl) model(mbs float64) CapacityModel {
	if lt.gamma > 0 {
		return Thrash{Base: mbs, Gamma: lt.gamma}
	}
	return Const(mbs)
}

// randomLinks draws n links of 10–510 MB/s. Every third link thrashes, so
// the solvers and the max-min certificate also see capacities that fall
// as streams are added.
func randomLinks(rng *rand.Rand, n int) []linkTmpl {
	links := make([]linkTmpl, n)
	for i := range links {
		links[i].mbs = 10 + rng.Float64()*500
		if i%3 == 2 {
			links[i].gamma = 0.05
		}
	}
	return links
}

// flushWatcher calls fn on every flow admission and completion.
type flushWatcher struct{ fn func() }

func (w flushWatcher) FlowStarted(*Flow)  { w.fn() }
func (w flushWatcher) FlowFinished(*Flow) { w.fn() }

// solverMode selects how a replayed net solves: the reference oracle, or
// the incremental solver with a given switch to the link-share heap.
type solverMode struct {
	name      string
	reference bool
	// heapRounds and heapLinks are the switch rule to the link-share heap
	// (Net.heapRounds, Net.heapLinks).
	heapRounds, heapLinks int
}

var (
	refMode      = solverMode{name: "reference", reference: true}
	defaultMode  = solverMode{name: "default", heapRounds: defaultHeapRounds, heapLinks: defaultHeapLinks}
	scanOnlyMode = solverMode{name: "scan-only", heapRounds: math.MaxInt}
	heapMode     = solverMode{name: "heap"}
)

// incModes are the incremental solver's search strategies: the shipped
// switch rule, scanning every round, and the heap from the first round.
var incModes = []solverMode{defaultMode, scanOnlyMode, heapMode}

// replay builds the links of topo, schedules ops, runs the engine, and
// returns the flows (in creation order), links and net. CheckInvariants
// and CheckMaxMin run inside every op event, and CheckMaxMin also runs
// after the flush that follows every admission and completion.
func replay(t *testing.T, ops []solverOp, topo []linkTmpl, mode solverMode) ([]*Flow, []*Link, *Net) {
	t.Helper()
	e := sim.NewEngine()
	n := NewNet(e)
	n.UseReferenceSolver(mode.reference)
	n.heapRounds, n.heapLinks = mode.heapRounds, mode.heapLinks
	links := make([]*Link, len(topo))
	for i, lt := range topo {
		links[i] = n.NewLink(fmt.Sprintf("l%d", i), lt.model(lt.mbs))
	}
	// The certificate event queues behind the instant's pending flush, and
	// re-queues while solver work is pending, so it never forces a solve of
	// its own: every replay of a schedule runs the same events.
	armed := false
	var certify func()
	certify = func() {
		if n.dirtyEv != nil || len(n.work) > 0 {
			e.Schedule(0, certify)
			return
		}
		armed = false
		if err := n.CheckMaxMin(); err != nil {
			t.Errorf("%s: max-min certificate after the flush at t=%v: %v", mode.name, e.Now(), err)
		}
	}
	n.Observe(flushWatcher{func() {
		if !armed {
			armed = true
			e.Schedule(0, certify)
		}
	}})
	resolve := func(sp specTmpl) FlowSpec {
		path := make([]*Link, len(sp.path))
		for i, k := range sp.path {
			path[i] = links[k]
		}
		return FlowSpec{Name: sp.name, SizeMB: sp.size, MaxRate: sp.maxRate, Path: path}
	}
	check := func(where string) {
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("%s: invariants after %s: %v", mode.name, where, err)
		}
		if err := n.CheckMaxMin(); err != nil {
			t.Errorf("%s: max-min certificate after %s: %v", mode.name, where, err)
		}
	}
	var flows []*Flow
	batchOf := make([]*Batch, len(ops))  // the batch each op admitted, for chains
	chainsOn := make(map[int][]solverOp) // target op index -> chained ops
	for _, op := range ops {
		if op.kind == opChain {
			chainsOn[op.target] = append(chainsOn[op.target], op)
		}
	}
	var armChains func(opIdx int)
	armChains = func(opIdx int) {
		target := batchOf[opIdx]
		for ci, chain := range chainsOn[opIdx] {
			chain := chain
			e.StartTask(0, fmt.Sprintf("chain%d_%d", opIdx, ci), -1, func(tk *sim.Task) {
				target.Await(tk, func() {
					sp := resolve(chain.specs[0])
					flows = append(flows, n.StartBatch([]FlowSpec{sp}).Flows()...)
					check("chained start " + sp.Name)
					tk.Finish()
				})
			})
		}
	}
	for opIdx, op := range ops {
		opIdx, op := opIdx, op
		switch op.kind {
		case opChain:
			continue
		case opCap:
			e.Schedule(op.at, func() {
				links[op.link].SetModel(topo[op.link].model(op.mbs))
				n.Recompute()
				check(fmt.Sprintf("capacity change at t=%v", op.at))
			})
		case opCapLazy:
			e.Schedule(op.at, func() {
				// No Recompute: the coalesced zero-delay solve applies it.
				links[op.link].SetModel(topo[op.link].model(op.mbs))
			})
		case opStart:
			e.Schedule(op.at, func() {
				sp := resolve(op.specs[0])
				batchOf[opIdx] = n.StartBatch([]FlowSpec{sp})
				flows = append(flows, batchOf[opIdx].Flows()...)
				armChains(opIdx)
				check("start " + sp.Name)
			})
		case opBatch:
			e.Schedule(op.at, func() {
				specs := make([]FlowSpec, len(op.specs))
				for i, sp := range op.specs {
					specs[i] = resolve(sp)
				}
				batchOf[opIdx] = n.StartBatch(specs)
				flows = append(flows, batchOf[opIdx].Flows()...)
				armChains(opIdx)
				check(fmt.Sprintf("batch of %d at t=%v", len(specs), op.at))
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return flows, links, n
}

// sameTrajectories fails unless two replays of one schedule agree bit for
// bit: every flow's name, completion state, start and finish time, and
// every link's carried volume.
func sameTrajectories(t *testing.T, label string, flows []*Flow, links []*Link, wantFlows []*Flow, wantLinks []*Link) {
	t.Helper()
	if len(flows) != len(wantFlows) {
		t.Fatalf("%s: flow counts diverged: %d vs %d", label, len(flows), len(wantFlows))
	}
	for i := range flows {
		f, w := flows[i], wantFlows[i]
		if f.Name() != w.Name() {
			t.Fatalf("%s: flow order diverged at %d: %s vs %s", label, i, f.Name(), w.Name())
		}
		if f.Finished() != w.Finished() {
			t.Fatalf("%s: flow %s: finished %v vs %v", label, f.Name(), f.Finished(), w.Finished())
		}
		if math.Float64bits(f.Started()) != math.Float64bits(w.Started()) {
			t.Errorf("%s: flow %s: start %v vs %v (not bit-identical)", label, f.Name(), f.Started(), w.Started())
		}
		if math.Float64bits(f.FinishedAt()) != math.Float64bits(w.FinishedAt()) {
			t.Errorf("%s: flow %s: finish %v vs %v (not bit-identical)", label, f.Name(), f.FinishedAt(), w.FinishedAt())
		}
	}
	for i := range links {
		if math.Float64bits(links[i].Carried()) != math.Float64bits(wantLinks[i].Carried()) {
			t.Errorf("%s: link %s: carried %v vs %v", label, links[i].Name(), links[i].Carried(), wantLinks[i].Carried())
		}
	}
}

// matchesReference replays a schedule under the reference solver and under
// each of the incremental solver's search strategies (incModes). Every
// incremental replay must drain, pass CheckInvariants, and match the
// reference bit for bit. It returns the incremental nets in incModes order.
//
// Invariants are checked inside every op event in every mode:
// CheckInvariants flushes pending solver work, and with lazy accrual a
// flush is itself a settle point, so the replays must perform the same
// call sequence to stay bit-identical — exactly as any real caller does,
// since the same program runs unmodified under either solver.
func matchesReference(t *testing.T, ops []solverOp, topo []linkTmpl) []*Net {
	t.Helper()
	refFlows, refLinks, _ := replay(t, ops, topo, refMode)
	nets := make([]*Net, len(incModes))
	for m, mode := range incModes {
		flows, links, n := replay(t, ops, topo, mode)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if n.ActiveFlows() != 0 || n.ActiveLinks() != 0 || n.Components() != 0 {
			t.Fatalf("%s: net not drained: %d flows, %d active links, %d components",
				mode.name, n.ActiveFlows(), n.ActiveLinks(), n.Components())
		}
		sameTrajectories(t, mode.name+" vs reference", flows, links, refFlows, refLinks)
		nets[m] = n
	}
	// The strategies fix the same flows in the same rounds, so only the
	// link visits and the share-heap work may differ between them.
	work := func(n *Net) Stats {
		s := n.Stats()
		s.LinkVisits, s.ShareHeapOps = 0, 0
		return s
	}
	for m, n := range nets {
		if work(n) != work(nets[0]) {
			t.Errorf("%s: solver work diverged from %s:\n%+v\n%+v", incModes[m].name, incModes[0].name, n.Stats(), nets[0].Stats())
		}
		if s := n.Stats(); incModes[m] == scanOnlyMode && s.ShareHeapOps != 0 {
			t.Errorf("scan-only replay made %d share-heap ops", s.ShareHeapOps)
		}
	}
	return nets
}

// TestIncrementalMatchesReferenceProperty drives randomized sequences of
// single starts, batch admissions (StartBatch), zero-duration flows,
// capacity changes and completion-chained arrivals through the
// incremental solver — with the shipped scan-to-heap switch, scanning
// only, and from the link-share heap from the first round — and the
// from-scratch reference solver on identical topologies. Start times,
// completion times and carried volumes must match bit for bit, and the
// incremental net must satisfy CheckInvariants — including
// completion-heap consistency — inside every event and after the run
// drains.
func TestIncrementalMatchesReferenceProperty(t *testing.T) {
	sawBatch, sawChain, sawZero, sawHeap := false, false, false, false
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nLinks := 4 + rng.Intn(12)
			topo := randomLinks(rng, nLinks)
			ops := randomSchedule(rng, nLinks)
			for _, op := range ops {
				switch op.kind {
				case opBatch:
					sawBatch = true
				case opChain:
					sawChain = true
				}
				for _, sp := range op.specs {
					if sp.size == 0 {
						sawZero = true
					}
				}
			}
			for m, n := range matchesReference(t, ops, topo) {
				if incModes[m] == heapMode && n.Stats().ShareHeapOps > 0 {
					sawHeap = true
				}
			}
		})
	}
	if !sawBatch || !sawChain || !sawZero || !sawHeap {
		t.Errorf("schedule generator lost coverage: batch=%v chain=%v zero=%v heap=%v",
			sawBatch, sawChain, sawZero, sawHeap)
	}
}

// TestStartBatchMatchesSequentialStarts verifies a batch admission is
// indistinguishable from the equivalent sequence of one-flow batches,
// including zero-sized and path-less capped members.
func TestStartBatchMatchesSequentialStarts(t *testing.T) {
	build := func(batch bool) ([]*Flow, *Net, *sim.Engine) {
		e := sim.NewEngine()
		n := NewNet(e)
		shared := n.NewLink("shared", Const(300))
		var specs []FlowSpec
		for i := 0; i < 16; i++ {
			nic := n.NewLink(fmt.Sprintf("nic%d", i), Const(100))
			specs = append(specs, FlowSpec{
				Name:   fmt.Sprintf("f%d", i),
				SizeMB: float64(100 + 37*i),
				Path:   []*Link{nic, shared},
			})
		}
		specs = append(specs, FlowSpec{Name: "zero", SizeMB: 0, Path: []*Link{shared}})
		specs = append(specs, FlowSpec{Name: "capped", SizeMB: 50, MaxRate: 5})
		var flows []*Flow
		if batch {
			flows = n.StartBatch(specs).Flows()
		} else {
			for _, sp := range specs {
				flows = append(flows, n.StartBatch([]FlowSpec{sp}).Flows()...)
			}
		}
		return flows, n, e
	}
	seqFlows, _, seqEng := build(false)
	batchFlows, bn, batchEng := build(true)
	if err := seqEng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := batchEng.Run(); err != nil {
		t.Fatal(err)
	}
	if !batchFlows[16].Finished() {
		t.Error("zero-sized batch member did not complete immediately")
	}
	for i := range seqFlows {
		a, b := seqFlows[i], batchFlows[i]
		if math.Float64bits(a.FinishedAt()) != math.Float64bits(b.FinishedAt()) {
			t.Errorf("flow %s: sequential %v vs batch %v", a.Name(), a.FinishedAt(), b.FinishedAt())
		}
	}
	if err := bn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescingReducesSolves: a 256-wide same-instant admission must cost
// one solve, not 256, and far fewer link visits than the reference solver
// pays for the same schedule — even more so with idle links around, which
// the incremental solver never scans.
func TestCoalescingReducesSolves(t *testing.T) {
	run := func(reference bool) Stats {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(reference)
		shared := n.NewLink("bb", Const(1000))
		var specs []FlowSpec
		for i := 0; i < 256; i++ {
			nic := n.NewLink(fmt.Sprintf("nic%d", i), Const(100))
			specs = append(specs, FlowSpec{
				Name:   fmt.Sprintf("f%d", i),
				SizeMB: 100,
				Path:   []*Link{nic, shared},
			})
		}
		// Plenty of idle links the incremental solver must never scan.
		for i := 0; i < 1000; i++ {
			n.NewLink(fmt.Sprintf("idle%d", i), Const(100))
		}
		n.ResetStats()
		n.StartBatch(specs)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Stats()
	}
	inc := run(false)
	ref := run(true)
	if inc.Solves != 2 { // one coalesced admission solve + one completion solve
		t.Errorf("incremental solves = %d, want 2", inc.Solves)
	}
	if ref.Solves < 256 {
		t.Errorf("reference solves = %d, want >= 256", ref.Solves)
	}
	if inc.LinkVisits*3 > ref.LinkVisits {
		t.Errorf("link visits not >=3x better: incremental %d vs reference %d",
			inc.LinkVisits, ref.LinkVisits)
	}
	if inc.Coalesced == 0 {
		t.Error("no coalesced recomputes recorded")
	}
}

// TestRecomputeFlushesPendingSolve: reading rates right after a start
// works when Recompute is called explicitly, even though the coalesced
// solve event has not fired yet.
func TestRecomputeFlushesPendingSolve(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	a := n.Start("a", 1000, 0, l)
	b := n.Start("b", 1000, 0, l)
	n.Recompute()
	if a.Rate() != 50 || b.Rate() != 50 {
		t.Errorf("rates after flush = %v, %v; want 50, 50", a.Rate(), b.Rate())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Finished() || !b.Finished() {
		t.Error("flows did not finish")
	}
}

// TestHeapCountersAndDisjointRekeys: on disjoint paths (each flow alone on
// its own link) an arrival or completion changes no other flow's rate, so
// the completion heap absorbs each event with O(log F) re-keys instead of
// a full-population rescan. The reference solver must report zero heap
// work, and the incremental per-round flow scans must stay bounded by the
// work actually available.
func TestHeapCountersAndDisjointRekeys(t *testing.T) {
	const nFlows = 64
	run := func(reference bool) Stats {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(reference)
		for i := 0; i < nFlows; i++ {
			i := i
			l := n.NewLink(fmt.Sprintf("pipe%d", i), Const(10))
			// Staggered arrivals, staggered completions: sizes grow so no
			// two flows complete at the same instant.
			e.Schedule(float64(i)*0.25, func() {
				n.Start(fmt.Sprintf("d%d", i), 100+float64(i), 0, l)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return n.Stats()
	}
	inc := run(false)
	ref := run(true)
	if ref.HeapOps != 0 {
		t.Errorf("reference heap ops = %d, want 0", ref.HeapOps)
	}
	if inc.HeapOps == 0 {
		t.Error("incremental solver recorded no heap ops")
	}
	if inc.Rounds == 0 || inc.FlowsScanned == 0 {
		t.Errorf("round counters empty: rounds=%d flowsScanned=%d", inc.Rounds, inc.FlowsScanned)
	}
	// Disjoint flows all fix in one round per solve, so the flow scans per
	// solve are the active population, never rounds x population.
	if inc.FlowsScanned > inc.Solves*nFlows {
		t.Errorf("flows scanned %d exceeds solves x flows (%d x %d)",
			inc.FlowsScanned, inc.Solves, nFlows)
	}
	// Each event re-keys O(1) flows plus the event's own push/remove; far
	// fewer total heap element operations than a per-event full rescan
	// (which would be ~solves x flows).
	if inc.HeapOps > inc.Solves*8 {
		t.Errorf("heap ops %d not O(1) per solve (%d solves)", inc.HeapOps, inc.Solves)
	}
}

// TestUseReferenceSolverToggleMidRun: switching modes with flows in
// flight rebuilds the completion heap (incremental) or drops it
// (reference) and the simulation still drains to the same completions.
func TestUseReferenceSolverToggleMidRun(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	a := n.Start("a", 1000, 0, l)
	b := n.Start("b", 500, 0, l)
	e.Schedule(2, func() {
		n.UseReferenceSolver(true)
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("after switch to reference: %v", err)
		}
	})
	e.Schedule(4, func() {
		n.UseReferenceSolver(false)
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("after switch back: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Finished() || !b.Finished() {
		t.Fatal("flows did not finish after mode toggles")
	}
	// Same loads either way: b (500 MB at 50 MB/s) then a alone.
	if math.Abs(b.FinishedAt()-10) > 1e-9 || math.Abs(a.FinishedAt()-15) > 1e-9 {
		t.Errorf("finish times = %v, %v; want 10, 15", b.FinishedAt(), a.FinishedAt())
	}
}

// TestZeroDurationFlowsAtCompletionInstant: zero-sized flows admitted at
// the exact instant another flow completes never enter the heap and never
// perturb the survivors' schedule.
func TestZeroDurationFlowsAtCompletionInstant(t *testing.T) {
	for _, reference := range []bool{false, true} {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(reference)
		l := n.NewLink("pipe", Const(100))
		short := n.StartBatch([]FlowSpec{{Name: "short", SizeMB: 100, Path: []*Link{l}}}) // done at t=2 under fair sharing
		long := n.Start("long", 1000, 0, l)
		var zero *Flow
		e.StartTask(0, "chain", -1, func(tk *sim.Task) {
			short.Await(tk, func() {
				zero = n.Start("zero", 0, 0, l)
				if !zero.Finished() {
					t.Error("zero-sized flow did not complete at admission")
				}
				if err := n.CheckInvariants(); err != nil {
					t.Errorf("reference=%v: %v", reference, err)
				}
				tk.Finish()
			})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if zero == nil || zero.FinishedAt() != short.Flows()[0].FinishedAt() {
			t.Fatalf("reference=%v: zero flow not admitted at completion instant", reference)
		}
		if !long.Finished() {
			t.Fatal("long flow did not drain")
		}
	}
}

// groupedSpec draws a flow whose path stays inside one link group, or —
// with probability 1/bridgeOdds — bridges two groups, merging their
// components; when the bridge later drains, the merged component must
// split again. Groups are contiguous index ranges of size groupLinks.
func groupedSpec(rng *rand.Rand, groups, groupLinks, bridgeOdds int, name string) specTmpl {
	pick := func(g, n int) []int {
		if n > groupLinks {
			n = groupLinks
		}
		seen := map[int]bool{}
		var path []int
		for len(path) < n {
			k := g*groupLinks + rng.Intn(groupLinks)
			if !seen[k] {
				seen[k] = true
				path = append(path, k)
			}
		}
		return path
	}
	g := rng.Intn(groups)
	var path []int
	if rng.Intn(bridgeOdds) == 0 && groups > 1 {
		g2 := (g + 1 + rng.Intn(groups-1)) % groups
		path = append(pick(g, 1+rng.Intn(2)), pick(g2, 1)...)
	} else {
		path = pick(g, 1+rng.Intn(3))
	}
	size := 1 + rng.Float64()*2000
	if rng.Intn(10) == 0 {
		size = 0
	}
	cap := 0.0
	if rng.Intn(3) == 0 {
		cap = 1 + rng.Float64()*100
	}
	return specTmpl{path: path, size: size, maxRate: cap, name: name}
}

// randomGroupedSchedule is randomSchedule over a grouped topology: mostly
// intra-group traffic (disjoint components), with occasional bridges that
// merge components on admission and split them again on completion, plus
// lazy and eager capacity changes.
func randomGroupedSchedule(rng *rand.Rand, groups, groupLinks int) []solverOp {
	var ops []solverOp
	var starters []int
	at := 0.0
	nLinks := groups * groupLinks
	nOps := 10 + rng.Intn(50)
	for i := 0; i < nOps; i++ {
		if rng.Intn(3) > 0 {
			at += rng.Float64() * 3
		}
		switch r := rng.Intn(10); {
		case r == 0 && i > 0:
			kind := opCapLazy
			if rng.Intn(3) == 0 {
				kind = opCap
			}
			ops = append(ops, solverOp{at: at, kind: kind, link: rng.Intn(nLinks), mbs: 5 + rng.Float64()*400})
		case r == 1 && len(starters) > 0:
			ops = append(ops, solverOp{
				at:     at,
				kind:   opChain,
				specs:  []specTmpl{groupedSpec(rng, groups, groupLinks, 4, fmt.Sprintf("c%d", i))},
				target: starters[rng.Intn(len(starters))],
			})
		case r <= 4:
			width := 2 + rng.Intn(16)
			specs := make([]specTmpl, width)
			for j := range specs {
				specs[j] = groupedSpec(rng, groups, groupLinks, 8, fmt.Sprintf("b%d_%d", i, j))
			}
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{at: at, kind: opBatch, specs: specs})
		default:
			starters = append(starters, len(ops))
			ops = append(ops, solverOp{
				at:    at,
				kind:  opStart,
				specs: []specTmpl{groupedSpec(rng, groups, groupLinks, 6, fmt.Sprintf("f%d", i))},
			})
		}
	}
	return ops
}

// TestMultiComponentMatchesReferenceProperty drives randomized
// multi-component schedules — disjoint link groups, flows migrating a
// component merge via shared-link (bridge) admission, component splits
// when bridges retire, and lazy SetModel changes — through the partitioned
// solver in each of its search strategies and the monolithic reference
// solver. Trajectories and carried volumes must match bit for bit, with
// the component-partition invariants checked inside every event in every
// mode. Seeds 100-129 draw 2-6 link groups; seeds 500-514 draw 2-8, the
// many-shard schedules.
func TestMultiComponentMatchesReferenceProperty(t *testing.T) {
	seeds := make([]int64, 0, 45)
	for seed := int64(100); seed < 130; seed++ {
		seeds = append(seeds, seed)
	}
	for seed := int64(500); seed < 515; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxGroups := 5
			if seed >= 500 {
				maxGroups = 7
			}
			groups := 2 + rng.Intn(maxGroups)
			groupLinks := 2 + rng.Intn(4)
			topo := randomLinks(rng, groups*groupLinks)
			ops := randomGroupedSchedule(rng, groups, groupLinks)
			inc := matchesReference(t, ops, topo)[0]
			// The partitioned solver must actually have partitioned: with
			// mostly intra-group traffic, the average population per
			// component solve stays below the whole-network population the
			// reference pays.
			flows := 0
			for _, op := range ops {
				flows += len(op.specs)
			}
			ist := inc.Stats()
			if ist.ComponentsSolved > 0 && flows >= 16 {
				perSolve := float64(ist.ComponentFlowsScanned) / float64(ist.ComponentsSolved)
				if perSolve >= float64(flows) {
					t.Errorf("component solves scan %.1f flows on average over %d total — no partitioning happened",
						perSolve, flows)
				}
			}
		})
	}
}

// TestNewLinkRejectsDuplicateNames: link names key telemetry, so reusing
// one is a caller bug — NewLink must panic rather than silently alias.
func TestNewLinkRejectsDuplicateNames(t *testing.T) {
	n := NewNet(sim.NewEngine())
	n.NewLink("ost0", Const(100))
	if !n.hasLink("ost0") {
		t.Error("hasLink(ost0) = false after NewLink")
	}
	if n.hasLink("ost1") {
		t.Error("hasLink(ost1) = true for an absent link")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate NewLink did not panic")
		}
	}()
	n.NewLink("ost0", Const(100))
}
