package mpi

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"pfsim/internal/sim"
)

func TestWorldGeometry(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 64, 16, 10)
	if w.Size() != 64 {
		t.Errorf("size = %d", w.Size())
	}
	if w.NodeOf(0) != 10 || w.NodeOf(15) != 10 || w.NodeOf(16) != 11 || w.NodeOf(63) != 13 {
		t.Errorf("node mapping wrong: %d %d %d %d",
			w.NodeOf(0), w.NodeOf(15), w.NodeOf(16), w.NodeOf(63))
	}
	if w.Nodes() != 4 {
		t.Errorf("nodes = %d, want 4", w.Nodes())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewWorld(sim.NewEngine(), 0, 16, 0)
}

func TestLaunchAndDone(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 8, 4, 0)
	ran := 0
	w.LaunchTasks(func(r *Rank, done func()) {
		r.Task().Sleep(float64(r.ID()), func() {
			ran++
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 8 {
		t.Errorf("ran=%d", ran)
	}
	if got := w.FinishedAt(); got != 7 {
		t.Errorf("finished at %v, want 7 (slowest rank)", got)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 16, 16, 0)
	var after []float64
	w.LaunchTasks(func(r *Rank, done func()) {
		r.Task().Sleep(float64(r.ID())*0.1, func() { // staggered arrivals
			w.Comm().BarrierK(r, func() {
				after = append(after, r.Task().Now())
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(after) != 16 {
		t.Fatalf("%d ranks released, want 16", len(after))
	}
	want := 1.5 + w.CollectiveLatency*4 // slowest arrival + log2(16) stages
	for _, tm := range after {
		if math.Abs(tm-want) > 1e-9 {
			t.Errorf("rank released at %v, want %v", tm, want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 10, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		v := float64(r.ID())
		w.Comm().AllreduceMinK(r, v, func(got float64) {
			if got != 0 {
				t.Errorf("min = %v", got)
			}
			w.Comm().AllreduceMaxK(r, v, func(got float64) {
				if got != 9 {
					t.Errorf("max = %v", got)
				}
				w.Comm().AllreduceSumK(r, v, func(_ *Rank, got float64) {
					if got != 45 {
						t.Errorf("sum = %v", got)
					}
					done()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByColor(t *testing.T) {
	// The Figure 2 benchmark splits a world into per-file communicators.
	eng := sim.NewEngine()
	w := NewWorld(eng, 12, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		color := r.ID() % 3
		w.Comm().SplitK(r, color, r.ID(), func(sub *Comm) {
			if sub.Size() != 4 {
				t.Errorf("subcomm size = %d, want 4", sub.Size())
			}
			if sub.RankOf(r) != r.ID()/3 {
				t.Errorf("world %d: sub rank = %d, want %d", r.ID(), sub.RankOf(r), r.ID()/3)
			}
			// Members share a color.
			for _, wr := range sub.WorldRanks() {
				if wr%3 != color {
					t.Errorf("world %d in wrong color group", wr)
				}
			}
			// Collectives work within the split comm.
			sub.AllreduceSumK(r, 1, func(_ *Rank, got float64) {
				if got != 4 {
					t.Errorf("sub sum = %v", got)
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedSplitReusesCommunicators: members that repeat the latest
// split's colors and keys get that split's communicators again, which
// still run collectives; any other split builds new ones, and only the
// latest split is remembered, so returning to an earlier partition builds
// it afresh.
func TestRepeatedSplitReusesCommunicators(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 8, 16, 0)
	halves := func(id int) (int, int) { return id % 2, id }
	quarters := func(id int) (int, int) { return id % 4, id }
	steps := []splitting{halves, halves, quarters, halves, halves}
	got := make([][]*Comm, len(steps)) // got[step][world rank]
	for i := range got {
		got[i] = make([]*Comm, w.Size())
	}
	w.LaunchTasks(func(r *Rank, done func()) {
		step := 0
		var next func(*Comm)
		split := func() {
			color, key := steps[step](r.ID())
			w.Comm().SplitK(r, color, key, next)
		}
		next = func(sub *Comm) {
			got[step][r.ID()] = sub
			sub.AllreduceSumK(r, 1, func(_ *Rank, sum float64) {
				if int(sum) != sub.Size() {
					t.Errorf("step %d: rank %d summed %v over %d members", step, r.ID(), sum, sub.Size())
				}
				if step++; step == len(steps) {
					done()
					return
				}
				split()
			})
		}
		split()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < w.Size(); id++ {
		for i, reused := range []bool{false, true, false, false, true} {
			if i == 0 {
				continue
			}
			if same := got[i][id] == got[i-1][id]; same != reused {
				t.Errorf("rank %d: split %d reused split %d's communicator: %v, want %v", id, i, i-1, same, reused)
			}
		}
		if got[3][id] == got[0][id] {
			t.Errorf("rank %d: returning to the first partition reused its communicator, which a later split replaced", id)
		}
		if a, b := got[3][id].WorldRanks(), got[0][id].WorldRanks(); !slices.Equal(a, b) {
			t.Errorf("rank %d: the first partition rebuilt with members %v, want %v", id, a, b)
		}
	}
}

// TestRankOfEveryMember: RankOf finds every member of strided, reversed
// and contiguous splits, and no one else in the world.
func TestRankOfEveryMember(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 12, 16, 0)
	var comms []*Comm
	for _, ranks := range [][]int{{1, 4, 7, 10}, {7, 5, 3}, {4, 5, 6, 7}} {
		comms = append(comms, newComm(w, "sub", ranks))
	}
	w.LaunchTasks(func(r *Rank, done func()) {
		for _, c := range comms {
			want := -1
			for i, wr := range c.ranks {
				if wr == r.ID() {
					want = i
				}
			}
			if got := c.RankOf(r); got != want {
				t.Errorf("rank %d in %v: RankOf = %d, want %d", r.ID(), c.ranks, got, want)
			}
		}
		done()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 4, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		// Reverse ordering by key: highest world rank becomes sub rank 0.
		w.Comm().SplitK(r, 0, -r.ID(), func(sub *Comm) {
			if got, want := sub.RankOf(r), 3-r.ID(); got != want {
				t.Errorf("world %d: sub rank = %d, want %d", r.ID(), got, want)
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 1, 16, 0)
	finished := false
	w.LaunchTasks(func(r *Rank, done func()) {
		w.Comm().BarrierK(r, func() {
			w.Comm().AllreduceMaxK(r, 7, func(got float64) {
				if got != 7 {
					t.Errorf("solo max = %v", got)
				}
				w.Comm().SplitK(r, 5, 0, func(sub *Comm) {
					if sub.Size() != 1 {
						t.Errorf("solo split size = %d", sub.Size())
					}
					finished = true
					done()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Error("single rank never finished")
	}
	if eng.Now() != 0 {
		t.Errorf("single-rank collectives should be free, t=%v", eng.Now())
	}
}

func TestForeignRankPanics(t *testing.T) {
	eng := sim.NewEngine()
	w1 := NewWorld(eng, 4, 16, 0)
	w2 := NewWorld(eng, 2, 16, 10)
	panicked := false
	w1.LaunchTasks(func(r *Rank, done func()) {
		defer done()
		if r.ID() == 3 { // world rank 3 has no counterpart in w2
			defer func() { panicked = recover() != nil }()
			w2.Comm().BarrierK(r, func() {}) // wrong comm
		}
	})
	w2.LaunchTasks(func(r *Rank, done func()) { done() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Error("want panic for foreign-comm collective")
	}
}

// TestMismatchedCollectivePanics: a rank that enters a different
// collective from the one the other members are in is refused, and so is
// a rank that enters a collective while still in one.
func TestMismatchedCollectivePanics(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 2, 16, 0)
	var refusals []string
	refused := func() {
		if r := recover(); r != nil {
			refusals = append(refusals, r.(string))
		}
	}
	w.LaunchTasks(func(r *Rank, done func()) {
		if r.ID() == 0 {
			w.Comm().BarrierK(r, done)
			func() {
				defer refused()
				w.Comm().BarrierK(r, done) // still in the first barrier
			}()
			return
		}
		defer refused()
		w.Comm().AllreduceMinK(r, 1, func(float64) { done() })
	})
	if err := eng.Run(); err == nil {
		t.Error("want the unmatched barrier to deadlock")
	}
	want := []string{
		`mpi: rank 0 called Barrier on comm "world" while still in a collective`,
		`mpi: rank 1 called AllreduceMin on comm "world", whose pending collective is Barrier`,
	}
	if strings.Join(refusals, "\n") != strings.Join(want, "\n") {
		t.Errorf("refusals:\n%s\nwant:\n%s", strings.Join(refusals, "\n"), strings.Join(want, "\n"))
	}
}

// TestRankOfOtherWorld: a rank is no member of another world's
// communicators, even where its rank number exists there.
func TestRankOfOtherWorld(t *testing.T) {
	eng := sim.NewEngine()
	w1, w2 := NewWorld(eng, 2, 16, 0), NewWorld(eng, 2, 16, 10)
	w1.LaunchTasks(func(r *Rank, done func()) {
		if got := w2.Comm().RankOf(r); got != -1 {
			t.Errorf("world-1 rank %d is rank %d of world 2", r.ID(), got)
		}
		done()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectivesMatchInOrder(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 6, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		var step func(i int)
		step = func(i int) {
			if i == 20 {
				done()
				return
			}
			w.Comm().AllreduceSumK(r, float64(i), func(_ *Rank, got float64) {
				if got != float64(6*i) {
					t.Errorf("iteration %d: sum = %v", i, got)
				}
				step(i + 1)
			})
		}
		step(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRankAccessors(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 2, 1, 5)
	w.LaunchTasks(func(r *Rank, done func()) {
		if r.World() != w {
			t.Error("World() mismatch")
		}
		if r.Node() != 5+r.ID() {
			t.Errorf("rank %d on node %d", r.ID(), r.Node())
		}
		done()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Comm().Label(); got != "world" {
		t.Errorf("label = %q", got)
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Property: for arbitrary color assignments, the split communicators
	// partition the world — every rank lands in exactly one subcomm, all
	// members share its color, and comm ranks are ordered by key.
	for seed := 0; seed < 8; seed++ {
		size := 5 + seed*3
		colors := make([]int, size)
		keys := make([]int, size)
		for i := range colors {
			colors[i] = (i*7 + seed) % 3
			keys[i] = (size - i) * ((seed % 2) + 1)
		}
		eng := sim.NewEngine()
		w := NewWorld(eng, size, 16, 0)
		membership := make([]*Comm, size)
		w.LaunchTasks(func(r *Rank, done func()) {
			w.Comm().SplitK(r, colors[r.ID()], keys[r.ID()], func(sub *Comm) {
				defer done()
				membership[r.ID()] = sub
				// Members agree on color.
				for _, wr := range sub.WorldRanks() {
					if colors[wr] != colors[r.ID()] {
						t.Errorf("seed %d: world %d grouped with wrong color", seed, wr)
					}
				}
				// Comm order sorted by (key, world rank).
				ranks := sub.WorldRanks()
				for i := 1; i < len(ranks); i++ {
					a, b := ranks[i-1], ranks[i]
					if keys[a] > keys[b] || (keys[a] == keys[b] && a > b) {
						t.Errorf("seed %d: comm order violates keys: %d before %d", seed, a, b)
					}
				}
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Partition: total membership equals world size exactly once.
		total := 0
		seen := map[*Comm]bool{}
		for _, c := range membership {
			if c == nil {
				t.Fatalf("seed %d: rank missing subcomm", seed)
			}
			if !seen[c] {
				seen[c] = true
				total += c.Size()
			}
		}
		if total != size {
			t.Errorf("seed %d: subcomms cover %d of %d ranks", seed, total, size)
		}
	}
}

// TestAllreduceSignedZeroDeterministic: min and max over tied ±0
// contributions keep the lowest comm rank's sign, every run — the
// reduction walks contributions in comm-rank order, not map order.
func TestAllreduceSignedZeroDeterministic(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for run := 0; run < 20; run++ {
		eng := sim.NewEngine()
		w := NewWorld(eng, 16, 16, 0)
		w.LaunchTasks(func(r *Rank, done func()) {
			lo, hi := 0.0, negZero // rank 0 contributes the odd sign out
			if r.ID() == 0 {
				lo, hi = negZero, 0.0
			}
			w.Comm().AllreduceMinK(r, lo, func(min float64) {
				if !math.Signbit(min) {
					t.Errorf("run %d: min = %v, want -0 (rank 0's)", run, min)
				}
				w.Comm().AllreduceMaxK(r, hi, func(max float64) {
					if math.Signbit(max) {
						t.Errorf("run %d: max = -0, want +0 (rank 0's)", run)
					}
					done()
				})
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSumInWorldRankOrderOnSplit: a split communicator ordered against
// world rank still sums in world-rank order, whose rounding differs here
// from comm-rank order (1 in world order, 0 in reverse).
func TestSumInWorldRankOrderOnSplit(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 1}
	eng := sim.NewEngine()
	w := NewWorld(eng, len(vals), 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		w.Comm().SplitK(r, 0, -r.ID(), func(sub *Comm) {
			sub.AllreduceSumK(r, vals[r.ID()], func(_ *Rank, got float64) {
				if got != 1 {
					t.Errorf("world %d: sum = %v, want 1 (world-rank order)", r.ID(), got)
				}
				done()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// roundsRank drives one rank through a fixed number of rounds of
// BarrierK, AllreduceMinK, AllreduceMaxK and AllreduceSumK on the world
// or on the communicator a split gave it. Its continuations are bound
// once, so every allocation a round makes is the collectives' own.
type roundsRank struct {
	c       *Comm
	r       *Rank
	left    int
	done    func()
	onBar   func()
	onMin   func(float64)
	onMax   func(float64)
	onSum   func(*Rank, float64)
	onSplit func(*Comm)
}

func (d *roundsRank) round() {
	if d.left == 0 {
		d.done()
		return
	}
	d.left--
	d.c.BarrierK(d.r, d.onBar)
}

func (d *roundsRank) barrier()              { d.c.AllreduceMinK(d.r, d.r.Task().Now(), d.onMin) }
func (d *roundsRank) reduced(float64)       { d.c.AllreduceMaxK(d.r, d.r.Task().Now(), d.onMax) }
func (d *roundsRank) maxed(float64)         { d.c.AllreduceSumK(d.r, 1, d.onSum) }
func (d *roundsRank) summed(*Rank, float64) { d.round() }
func (d *roundsRank) split(sub *Comm)       { d.c = sub; d.round() }

// A splitting assigns a rank its color and key for SplitK; a nil
// splitting runs the rounds on the world.
type splitting func(id int) (color, key int)

var (
	// Halves in reverse world order: a communicator that searches its
	// members and sums in world order.
	reversedHalves splitting = func(id int) (int, int) { return id % 2, -id }
	// Evens and odds in world order: a communicator whose members are
	// not consecutive world ranks.
	interleaved splitting = func(id int) (int, int) { return id % 2, id }
	// One rank each: collectives with no latency to pay.
	solo splitting = func(id int) (int, int) { return id, 0 }
)

// collectiveRoundAllocs returns the heap allocations a size-rank world
// makes running rounds rounds, after the split if any, its roundsRank
// values included.
func collectiveRoundAllocs(size, rounds int, sp splitting) float64 {
	return testing.AllocsPerRun(3, func() {
		eng := sim.NewEngine()
		w := NewWorld(eng, size, 16, 0)
		w.LaunchTasks(func(r *Rank, done func()) {
			d := &roundsRank{c: w.Comm(), r: r, left: rounds, done: done}
			d.onBar, d.onMin, d.onMax, d.onSum, d.onSplit = d.barrier, d.reduced, d.maxed, d.summed, d.split
			if sp == nil {
				d.round()
				return
			}
			color, key := sp(r.ID())
			w.Comm().SplitK(r, color, key, d.onSplit)
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
}

// TestCollectiveAllocsPerRoundIndependentOfRanks: a collective allocates
// nothing per call once its communicator has made its two rendezvous.
// Doubling the rounds on an 8- and a 64-rank world adds no allocation:
// the rendezvous, their contribution vectors, signals and waiter lists
// are recycled, however many ranks park on them. The same holds on the
// communicators of a split, whether they list their members against
// world order or hold one rank each.
func TestCollectiveAllocsPerRoundIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const rounds = 20
	for _, in := range []struct {
		name string
		sp   splitting
	}{{"world", nil}, {"interleaved", interleaved}, {"reversed halves", reversedHalves}, {"solo", solo}} {
		perRound := map[int]float64{}
		for _, size := range []int{8, 64} {
			extra := collectiveRoundAllocs(size, 2*rounds, in.sp) - collectiveRoundAllocs(size, rounds, in.sp)
			perRound[size] = extra / rounds
		}
		t.Logf("%s: allocations per round: %v at 8 ranks, %v at 64", in.name, perRound[8], perRound[64])
		if perRound[8] != 0 || perRound[64] != 0 {
			t.Errorf("%s: %v allocations per round of four collectives at 8 ranks, %v at 64, want 0",
				in.name, perRound[8], perRound[64])
		}
	}
}

// TestStuckCollectiveNamesItsCall: a deadlocked collective is reported
// under its communicator's label and its call number, counted across the
// two recycled rendezvous: the fourth collective on the world is
// world-coll-3.
func TestStuckCollectiveNamesItsCall(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 3, 16, 0)
	w.LaunchTasks(func(r *Rank, done func()) {
		c := w.Comm()
		c.BarrierK(r, func() {
			c.AllreduceMaxK(r, 1, func(float64) {
				c.BarrierK(r, func() {
					if r.ID() == 2 {
						return // never enters the fourth collective
					}
					c.BarrierK(r, done)
				})
			})
		})
	})
	err := eng.Run()
	want := "sim: deadlock at t=0.000012: 2 blocked process(es): [rank0 (waiting world-coll-3) rank1 (waiting world-coll-3)]"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock report:\n got %v\nwant %q", err, want)
	}
}

// rankSum is a continuation target shared by every rank: it records what
// each rank receives, keyed by world rank.
type rankSum struct {
	sums   []float64
	waited []bool
	errs   []error
	done   []func()
}

func (s *rankSum) summed(r *Rank, v float64) { s.sums[r.ID()] = v }
func (s *rankSum) woke(r *Rank)              { s.waited[r.ID()] = true }
func (s *rankSum) failed(r *Rank, err error) { s.errs[r.ID()] = err }
func (s *rankSum) finish(r *Rank)            { s.done[r.ID()]() }

// TestRankContinuations: a continuation bound once receives each resuming
// rank, from the rank-receiving collectives and from an operation a rank
// is handed to through Then and ThenErr.
func TestRankContinuations(t *testing.T) {
	eng := sim.NewEngine()
	const n = 4
	w := NewWorld(eng, n, 16, 0)
	s := &rankSum{sums: make([]float64, n), waited: make([]bool, n), errs: make([]error, n), done: make([]func(), n)}
	gate := eng.NewSignal("gate")
	failure := errors.New("boom")
	w.LaunchTasks(func(r *Rank, done func()) {
		s.done[r.ID()] = done
		w.Comm().AllreduceSumK(r, float64(r.ID()+1), func(r *Rank, v float64) {
			s.summed(r, v)
			gate.Await(r.Task(), r.Then(func(r *Rank) {
				s.woke(r)
				r.ThenErr(s.failed)(failure)
				w.Comm().BarrierRankK(r, s.finish)
			}))
		})
	})
	eng.Schedule(1, gate.Fire)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if s.sums[i] != 10 || !s.waited[i] || s.errs[i] != failure {
			t.Errorf("rank %d: sum %v, woke %v, err %v", i, s.sums[i], s.waited[i], s.errs[i])
		}
	}
}

// TestThenWhileWaitingPanics: a rank handed to a second operation while
// it still waits on one is refused.
func TestThenWhileWaitingPanics(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWorld(eng, 1, 16, 0)
	var got any
	w.LaunchTasks(func(r *Rank, done func()) {
		r.Then(func(*Rank) {})
		func() {
			defer func() { got = recover() }()
			r.Then(func(*Rank) {})
		}()
		r.resumeK()
		done()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "mpi: rank 0 handed to an operation while still waiting on one"; got != want {
		t.Errorf("panic %v, want %q", got, want)
	}
}
