package ior_test

import (
	"testing"

	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
)

// repAllocs returns the heap allocations one repetition of base makes on
// a ranks-rank world: what four repetitions allocate beyond two, halved,
// so the set-up of the system, the world and the ranks cancels out.
func repAllocs(base ior.Config, ranks int) float64 {
	plat := quietCab()
	run := func(reps int) float64 {
		cfg := base
		cfg.NumTasks = ranks
		cfg.Reps = reps
		return testing.AllocsPerRun(3, func() {
			if _, err := runSolo(plat, cfg); err != nil {
				panic(err)
			}
		})
	}
	return (run(4) - run(2)) / 2
}

// TestRepetitionAllocsIndependentOfRanks: a collective repetition's
// allocations do not grow with rank count. A rank goes through its
// repetitions as a state machine whose continuations are bound at
// launch, on collectives that recycle their rendezvous, so what a
// repetition allocates (the file, its layout, the aggregators' flows,
// the recorded samples) is per job and per node, not per rank. From 8
// ranks on one node to 64 on four, a repetition allocates about 10 more
// times: the extra nodes' aggregators and the amortised growth of
// recycled lists. That holds with the read pass and with compute gaps
// between repetitions.
// Anything that allocates once per rank per repetition, such as a
// construct in mpi.Rank.Then, which every rank calls, adds at least
// 64 - 8 = 56; one per rankRun.advance call adds about 10 times that.
// The bound, half an allocation per added rank per repetition, sits
// between the two.
func TestRepetitionAllocsIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, in := range []struct {
		name string
		cfg  func(*ior.Config)
	}{
		{"read back", func(c *ior.Config) { c.ReadFile = true }},
		{"compute gaps", func(c *ior.Config) { c.ComputeSeconds = 2 }},
	} {
		base := ior.PaperConfig(8)
		in.cfg(&base)
		small, large := repAllocs(base, 8), repAllocs(base, 64)
		t.Logf("%s: allocations per repetition: %v at 8 ranks, %v at 64", in.name, small, large)
		if bound := (64 - 8) / 2.0; large-small >= bound {
			t.Errorf("%s: a repetition allocates %v times at 64 ranks and %v at 8: %v more, want fewer than %v",
				in.name, large, small, large-small, bound)
		}
	}
}

// TestRepetitionAllocsPerRank pins what a repetition allocates per rank
// where each rank does I/O of its own, from 8 ranks on one node to 64 on
// four:
//   - independent writes: each rank starts a flow per stripe its
//     segments touch, each with its record, beside the rank's request
//     list and its batch, with the batch's wait and its slabs of
//     streams, specs and paths;
//   - file per process: each rank opens, writes and closes a file of its
//     own, on the communicator it split off in the first repetition and
//     with the aggregator link that file made;
//   - PLFS: each rank opens, appends to and closes its own log, its
//     open waiting in the container's stage queues.
//
// One allocation more per rank and repetition in these branches raises
// the slope by 1; the bound is half an allocation above the slope.
func TestRepetitionAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, in := range []struct {
		name    string
		cfg     func(*ior.Config)
		perRank float64
	}{
		{"independent", func(c *ior.Config) { c.Collective = false }, 16.8},
		{"file per process", func(c *ior.Config) { c.FilePerProc = true }, 31},
		{"plfs", func(c *ior.Config) { c.API = mpiio.DriverPLFS }, 20.5},
	} {
		base := ior.PaperConfig(8)
		in.cfg(&base)
		small, large := repAllocs(base, 8), repAllocs(base, 64)
		slope := (large - small) / (64 - 8)
		t.Logf("%s: allocations per repetition: %v at 8 ranks, %v at 64: %.3f per added rank", in.name, small, large, slope)
		if bound := in.perRank + 0.5; slope >= bound {
			t.Errorf("%s: a repetition allocates %v times at 64 ranks and %v at 8: %.3f per added rank, want fewer than %v",
				in.name, large, small, slope, bound)
		}
	}
}
