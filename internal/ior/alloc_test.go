package ior

import "testing"

// repAllocs returns the heap allocations one repetition of the Table II
// job, with its read pass, makes on a ranks-rank world: what four
// repetitions allocate beyond two, halved, so the set-up of the system,
// the world, the ranks and the files cancels out.
func repAllocs(ranks int) float64 {
	plat := quietCab()
	run := func(reps int) float64 {
		cfg := PaperConfig(ranks)
		cfg.Reps = reps
		cfg.ReadFile = true
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(plat, cfg); err != nil {
				panic(err)
			}
		})
	}
	return (run(4) - run(2)) / 2
}

// TestRepetitionAllocsIndependentOfRanks: a repetition's allocations do
// not grow with rank count. A rank goes through its repetitions as a
// state machine whose continuations are bound at launch, on collectives
// that recycle their rendezvous, so what a repetition allocates (the
// file's layout, the aggregators' flows, the recorded samples) is per
// job and per node, not per rank. From 8 ranks on one node to 64 on
// four, a repetition allocates about 10 more times: the extra nodes'
// aggregators and the amortised growth of recycled lists.
// Anything that allocates once per rank per repetition, such as a
// construct in mpi.Rank.Then, which every rank calls, adds at least
// 64 - 8 = 56; one per rankRun.advance call adds about 10 times that.
// The bound, half an allocation per added rank per repetition, sits
// between the two.
func TestRepetitionAllocsIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	small, large := repAllocs(8), repAllocs(64)
	t.Logf("allocations per repetition: %v at 8 ranks, %v at 64", small, large)
	if bound := (64 - 8) / 2.0; large-small >= bound {
		t.Errorf("a repetition allocates %v times at 64 ranks and %v at 8: %v more, want fewer than %v",
			large, small, large-small, bound)
	}
}
