package lustre_test

import (
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// TestRetainedStateBoundedByRepetitions: what a job leaves in its file
// system does not grow with its repetitions. Run at 2 and at 4
// repetitions, each access pattern ends with as many links in the net
// (a communicator reuses its aggregators' links for every file opened on
// it) and as much room in the metadata server's create queue, the OSTs'
// job lists and the thrash table's rows, which grow to their peak depth
// once. The platform has
// two OSTs, which every file stripes over, so each repetition loads them
// alike however its layouts are drawn.
func TestRetainedStateBoundedByRepetitions(t *testing.T) {
	plat := cluster.Cab()
	plat.OSTs, plat.OSSs, plat.MaxStripeCount = 2, 2, 2
	for _, in := range []struct {
		name string
		cfg  func(*ior.Config)
	}{
		{"collective", func(*ior.Config) {}},
		{"collective with a read pass", func(c *ior.Config) { c.ReadFile = true }},
		{"independent", func(c *ior.Config) { c.Collective = false }},
		{"file per process", func(c *ior.Config) { c.FilePerProc = true }},
		{"plfs", func(c *ior.Config) { c.API = mpiio.DriverPLFS }},
	} {
		retained := func(reps int) (links, entries int) {
			cfg := ior.PaperConfig(48)
			cfg.SegmentCount = 2
			cfg.Reps = reps
			in.cfg(&cfg)
			eng := sim.NewEngine()
			sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(5))
			job, err := ior.StartJob(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if err := job.Err(); err != nil {
				t.Fatal(err)
			}
			return sys.Net().Links(), lustre.Retained(sys)
		}
		links2, entries2 := retained(2)
		links4, entries4 := retained(4)
		t.Logf("%s: %d links and %d queue, list and row entries after 2 repetitions, %d and %d after 4",
			in.name, links2, entries2, links4, entries4)
		if links4 != links2 {
			t.Errorf("%s: the net holds %d links after 2 repetitions and %d after 4", in.name, links2, links4)
		}
		if entries4 != entries2 {
			t.Errorf("%s: the MDS queue, OST job lists and thrash rows keep room for %d entries after 2 repetitions and %d after 4",
				in.name, entries2, entries4)
		}
	}
}
