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

// batchWriteAllocs returns the allocations of one batch write to ranks
// opened rank logs, run until its flows drain, on a platform of two OSTs
// that every data log stripes over, so a batch of any size touches both.
// The container is opened before the count starts.
func batchWriteAllocs(ranks int) float64 {
	plat := cluster.Cab()
	plat.OSTs, plat.OSSs, plat.MaxStripeCount = 2, 2, 2
	eng := sim.NewEngine()
	sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(7))
	c := NewContainer(sys, "batch")
	eng.StartTask(0, "meta", -1, func(tk *sim.Task) { c.CreateMetaK(tk, tk.Finish) })
	for r := 0; r < ranks; r++ {
		eng.StartTask(0, "rank", r, func(tk *sim.Task) {
			c.OpenRankK(tk, r, func(err error) {
				if err != nil {
					panic(err)
				}
				tk.Finish()
			})
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	written := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	body := func(tk *sim.Task) {
		c.BatchWriteK(tk, 4, 1, func(err error) {
			written(err)
			tk.Finish()
		})
	}
	return testing.AllocsPerRun(3, func() {
		eng.StartTask(0, "writer", -1, body)
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
}

// TestBatchWriteAllocsPerRank: a batch write allocates per OST it
// touches, not per rank: each share records its ranks' data logs in its
// run of one slab per batch, the shares are found through the
// container's per-OST index, and each rank's bytes are split without a
// slice. Both sizes touch both OSTs, so the per-OST costs cancel.
func TestBatchWriteAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	small, large := batchWriteAllocs(256), batchWriteAllocs(512)
	perRank := (large - small) / 256
	t.Logf("a batch write allocates %v times at 256 ranks, %v at 512: %.3f per added rank", small, large, perRank)
	if perRank >= 0.1 {
		t.Errorf("%.3f allocations per added rank, want fewer than 0.1: a batch allocates per OST, not per rank", perRank)
	}
}
