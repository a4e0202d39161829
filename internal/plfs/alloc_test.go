package plfs

import (
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// openStormAllocs returns the allocations of an open storm of ranks
// ranks on a fresh system and container, the build included. The ranks'
// task body and open continuation are bound once.
func openStormAllocs(ranks int) float64 {
	plat := cluster.Cab()
	return testing.AllocsPerRun(3, func() {
		eng := sim.NewEngine()
		sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(7))
		c := NewContainer(sys, "storm")
		eng.StartTask(0, "meta", -1, func(tk *sim.Task) { c.CreateMetaK(tk, tk.Finish) })
		next := 0
		opened := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		body := func(tk *sim.Task) {
			c.OpenRankK(tk, next, opened)
			next++
		}
		for r := 0; r < ranks; r++ {
			eng.StartTask(0, "rank", r, body)
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		if c.Ranks() != ranks {
			panic("ranks left unopened")
		}
	})
}

// TestOpenRankAllocsPerRank: an open storm allocates, per rank, its task
// and start event's closure, its log record and its two files with their
// OST lists, and nothing for the way through the four stages: a rank's
// state waits in the container's stage queues and resumes through methods
// bound once per container, the create lock's and the MDS's holds wait in
// their servers' queues, and the MDS serves its create queue through one
// bound method. The container's rank map, rank list and queues grow by
// doubling, which the bound leaves room for.
func TestOpenRankAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	small, large := openStormAllocs(64), openStormAllocs(128)
	perRank := (large - small) / 64
	t.Logf("an open storm allocates %v times at 64 ranks, %v at 128: %.3f per added rank", small, large, perRank)
	if perRank >= 8 {
		t.Errorf("%.3f allocations per added rank, want fewer than 8: the task (2), the log (1) and two files with their OST lists (4), and the amortised growth of the container's lists", perRank)
	}
}
